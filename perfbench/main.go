// Command perfbench is the repository's system benchmark. It runs one of
// three workloads through the public Go APIs, in one process, checks every
// output, and prints the workload's metrics as one JSON object on the last
// line of standard output:
//
//	perfbench -workload suite-quick -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones (timings measured with
// every observation aid off); with -trace 1 the run measures a traced
// unit — telemetry counters on, a CPU profile, spans around the
// benchmark's calls into each layer — between two untraced ones, and
// prints the per-layer metrics. README.md in this directory maps every metric to
// its layer and workload.
//
// Run it through run.sh, which builds it from the checkout it sits in.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host identifies the machine a result was measured on.
type host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Arch       string `json:"arch"`
}

// record is the detail line printed before the result: what was run, on
// which host, and the sample counts and exact counts behind the metrics.
type record struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Seconds  int       `json:"seconds"`
	Trace    bool      `json:"trace"`
	Host     host      `json:"host"`
	Units    int       `json:"units"`
	UnitWall []float64 `json:"unit_wall_s"`
	UnitCPU  []float64 `json:"unit_cpu_s"`
	Setups   int       `json:"setups"`
	Samples  any       `json:"samples,omitempty"`
	Exact    any       `json:"exact,omitempty"`
	Failures []string  `json:"failures,omitempty"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "workload seed: selects the generated inputs")
		seconds = flag.Int("seconds", 20, "measurement length in seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		root    = flag.String("root", ".", "repository root (golden files, scratch space under .bench_build)")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatalf("need -seconds >= 1 and -trace 0 or 1")
	}
	if _, err := os.Stat(filepath.Join(*root, "go.mod")); err != nil {
		fatalf("-root %s is not the repository root: %v", *root, err)
	}
	work := filepath.Join(*root, ".bench_build", "work", fmt.Sprintf("%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fatalf("%v", err)
	}
	b := &bench{
		root:    *root,
		work:    work,
		seed:    *seed,
		seconds: *seconds,
	}
	res, rec, err := b.run(*name, w, *traced == 1)
	if rmErr := os.RemoveAll(work); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s\n", line)
	line, err = json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s\n", line)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func hostInfo() host {
	h := host{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Arch: runtime.GOARCH}
	var u syscall.Utsname
	if err := syscall.Uname(&u); err == nil {
		h.Kernel = cString(u.Sysname[:]) + " " + cString(u.Release[:])
	}
	return h
}

// cString converts a NUL-terminated utsname field (int8 or uint8 depending
// on the architecture).
func cString[T int8 | uint8](b []T) string {
	var s []byte
	for _, c := range b {
		if c == 0 {
			break
		}
		s = append(s, byte(c))
	}
	return string(s)
}
