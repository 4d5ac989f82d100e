package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// A workload prepares and runs units of work. A unit is the workload's
// fixed amount of closed-loop work (one suite pass, one fuzz campaign, one
// daemon round); end-to-end timings are medians over units, so a slow
// outlier unit does not move them.
type workload interface {
	// setup prepares one unit. Its time is setup_s; it is not measured
	// as part of wall_s or cpu_s.
	setup(b *bench, traced bool) (unit, error)
	// report adds the workload's own metrics once every unit has run:
	// end-to-end metrics always, per-layer metrics when traced.
	report(b *bench, traced bool, m map[string]metric, rec *record)
}

// A unit is one prepared unit of work.
type unit interface {
	// run is the measured phase. Failed operations go to b.fail; an
	// error means the benchmark itself could not run.
	run(b *bench) error
	// verify checks the unit's outputs after the measured phase, so
	// that the benchmark's own read-backs are not charged to the
	// program.
	verify(b *bench) error
	// close releases the unit's resources (servers, scratch files).
	close() error
}

var workloads = map[string]workload{
	"suite-quick":   &suiteWorkload{},
	"fuzz-observed": &fuzzWorkload{},
	"serve-mixed":   &serveWorkload{},
}

const (
	// minUnits is the fewest units a run measures, whatever -seconds
	// says, so every median and tail has a guaranteed sample floor.
	minUnits = 2
	// A -trace 0 run times extra set-ups before each of its units, so
	// that setup_s is a median of many, taken across the whole run as
	// the unit timings are: at least minSetups before the first unit, and
	// before every unit more while that batch has taken less than
	// setupSlice, up to maxSetups in all. A millisecond set-up thus
	// gets hundreds of samples per batch.
	minSetups  = 5
	maxSetups  = 2000
	setupSlice = 200 * time.Millisecond
	// maxFailures caps the failure messages kept for the record line.
	maxFailures = 20
)

// unitStats is one unit's measured cost.
type unitStats struct {
	wall, cpu  time.Duration
	allocBytes uint64
}

// bench is one benchmark run.
type bench struct {
	root    string
	work    string
	seed    uint64
	seconds int

	setups     []time.Duration
	units      []unitStats
	tracedUnit *unitStats
	spans      *spanLog
	prof       *profile
	gcCPU      float64
	gcRuns     uint64

	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	failures  []string
	unitSeq   int
}

// try counts one attempted operation and, when err is non-nil, one
// failed one.
func (b *bench) try(err error) bool {
	b.attempted.Add(1)
	if err == nil {
		return true
	}
	b.fail(err)
	return false
}

// fail records a failed operation that try did not already count.
func (b *bench) fail(err error) {
	b.failed.Add(1)
	b.mu.Lock()
	if len(b.failures) < maxFailures {
		b.failures = append(b.failures, err.Error())
	}
	b.mu.Unlock()
}

// scratch returns a fresh directory under the run's scratch space.
func (b *bench) scratch(name string) (string, error) {
	b.mu.Lock()
	b.unitSeq++
	dir := fmt.Sprintf("%s/%s-%d", b.work, name, b.unitSeq)
	b.mu.Unlock()
	return dir, os.MkdirAll(dir, 0o755)
}

// run measures the workload and assembles the output.
func (b *bench) run(name string, w workload, traced bool) (*result, *record, error) {
	start := time.Now()
	if !traced {
		// Start another batch of set-ups and unit while they can finish
		// within -seconds, judged by the slowest so far.
		deadline := start.Add(time.Duration(b.seconds) * time.Second)
		var longest time.Duration
		for len(b.units) < minUnits || time.Now().Add(longest).Before(deadline) {
			t0 := time.Now()
			if err := b.extraSetups(w); err != nil {
				return nil, nil, err
			}
			if err := b.unit(w, false); err != nil {
				return nil, nil, err
			}
			longest = max(longest, time.Since(t0))
		}
	} else {
		// The traced unit gives the per-layer numbers; the untraced units
		// before and after it are the baseline for the tracing overhead,
		// so a host that drifts in speed moves both sides alike.
		for _, traced := range []bool{false, true, false} {
			if err := b.unit(w, traced); err != nil {
				return nil, nil, err
			}
		}
	}

	m := map[string]metric{}
	rec := &record{
		Workload: name,
		Seed:     b.seed,
		Seconds:  b.seconds,
		Trace:    traced,
		Host:     hostInfo(),
		Units:    len(b.units),
		UnitWall: unitSeconds(b.units, func(u unitStats) time.Duration { return u.wall }),
		UnitCPU:  unitSeconds(b.units, func(u unitStats) time.Duration { return u.cpu }),
		Setups:   len(b.setups),
	}
	if !traced {
		m["setup_s"] = metric{median(secondsOf(b.setups)), "s"}
		m["wall_s"] = metric{median(rec.UnitWall), "s"}
		m["cpu_s"] = metric{median(rec.UnitCPU), "s"}
		allocs := make([]float64, len(b.units))
		for i, u := range b.units {
			allocs[i] = float64(u.allocBytes) / 1e6
		}
		m["alloc_mb"] = metric{median(allocs), "MB"}
		m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	} else {
		b.layerMetrics(m)
		if err := b.spans.write(b.root, name, b.seed); err != nil {
			return nil, nil, err
		}
		if err := b.prof.save(b.root, name, b.seed); err != nil {
			return nil, nil, err
		}
	}
	w.report(b, traced, m, rec)
	if err := checkNames(m, traced); err != nil {
		return nil, nil, err
	}
	b.mu.Lock()
	rec.Failures = append([]string(nil), b.failures...)
	b.mu.Unlock()
	res := &result{
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   m,
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, rec, nil
}

// extraSetups times a batch of set-ups that no unit runs.
func (b *bench) extraSetups(w workload) error {
	t0 := time.Now()
	for n := 0; len(b.setups) < maxSetups && (len(b.setups) < minSetups || n == 0 || time.Since(t0) < setupSlice); n++ {
		t1 := time.Now()
		u, err := w.setup(b, false)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		b.setups = append(b.setups, time.Since(t1))
		if err := u.close(); err != nil {
			return err
		}
		// Collect each set-up's garbage so that repeated set-ups do not
		// raise the peak RSS the units report.
		runtime.GC()
	}
	return nil
}

// unit sets up, measures and releases one unit of work.
func (b *bench) unit(w workload, traced bool) error {
	var profBuf bytes.Buffer
	var gc0 gcSample
	if !traced {
		// An untraced unit after the traced one records no spans.
		spans := b.spans
		b.spans = nil
		defer func() { b.spans = spans }()
	} else {
		b.spans = newSpanLog()
		gc0 = readGC()
		if err := pprof.StartCPUProfile(&profBuf); err != nil {
			return err
		}
	}
	t0 := time.Now()
	u, err := w.setup(b, traced)
	if err != nil {
		if traced {
			pprof.StopCPUProfile()
		}
		return fmt.Errorf("setup: %w", err)
	}
	setup := time.Since(t0)
	// Collect set-up garbage before timing, so each unit starts from
	// the same heap.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	w0 := time.Now()
	err = u.run(b)
	st := unitStats{wall: time.Since(w0), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&ms1)
	st.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	if traced {
		pprof.StopCPUProfile()
		gc1 := readGC()
		b.gcCPU = gc1.frac(gc0)
		b.gcRuns = gc1.cycles - gc0.cycles
		p, perr := parseProfile(profBuf.Bytes())
		if perr != nil && err == nil {
			err = perr
		}
		b.prof = p
	}
	if err == nil {
		err = u.verify(b)
	}
	if cerr := u.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if traced {
		b.tracedUnit = &st
	} else {
		b.units = append(b.units, st)
		b.setups = append(b.setups, setup)
	}
	return nil
}

// layerMetrics adds the per-layer metrics every workload shares: profile
// CPU shares, GC cost, tracing overhead.
func (b *bench) layerMetrics(m map[string]metric) {
	for _, layer := range profiledLayers {
		m[layer+".cpu_share"] = metric{b.prof.share(layer), "fraction"}
	}
	m["runtime.copy_cpu_share"] = metric{b.prof.leafShare("runtime.duffcopy", "runtime.memmove"), "fraction"}
	m["runtime.gc_cpu_frac"] = metric{b.gcCPU, "fraction"}
	m["runtime.gc_cycles"] = metric{float64(b.gcRuns), "count"}
	base := (b.units[0].wall.Seconds() + b.units[1].wall.Seconds()) / 2
	m["bench.trace_overhead_frac"] = metric{b.tracedUnit.wall.Seconds()/base - 1, "fraction"}
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// gcSample is a reading of the runtime's GC accounting.
type gcSample struct {
	gcCPU, totalCPU float64
	cycles          uint64
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var g gcSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		g.cycles = s[2].Value.Uint64()
	}
	return g
}

// frac is the GC's share of the CPU time available between two readings.
func (g gcSample) frac(before gcSample) float64 {
	total := g.totalCPU - before.totalCPU
	if total <= 0 {
		return 0
	}
	return (g.gcCPU - before.gcCPU) / total
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the definition numpy and Python's "inclusive" method
// use).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// rank returns the q-quantile of xs by nearest rank: the smallest sample
// with at least a q share of the samples at or below it (0 for none).
// Pooled latencies use it because it picks the same run of a workload
// whose units repeat the same runs, whatever the number of units;
// interpolating between order statistics would mix neighbouring runs in
// proportions that change with the sample count.
func rank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s))-1e-9)) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tailPercentiles is the ladder a tail metric picks from.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile returns the highest ladder percentile that leaves at
// least ten samples above it when n samples are taken. Workloads call it
// with their guaranteed minimum sample count, so a metric keeps the same
// percentile on every run.
func tailPercentile(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		// The tolerance keeps float rounding from rejecting exactly ten,
		// as in 100·(1−0.90).
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// latency is a tail-reporting latency sample set.
type latency struct {
	mu sync.Mutex
	ms []float64
}

func (l *latency) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, ms(d))
	l.mu.Unlock()
}

// summary is a latency's printed form in the record line.
type summary struct {
	Samples    int     `json:"samples"`
	P50        float64 `json:"p50_ms"`
	Percentile float64 `json:"tail_percentile"`
	Tail       float64 `json:"tail_ms"`
}

// summary reports the median and the tail percentile that minSamples,
// the run's guaranteed sample count, supports.
func (l *latency) summary(minSamples int) summary {
	p := tailPercentile(minSamples)
	return summary{Samples: len(l.ms), P50: rank(l.ms, 0.5), Percentile: p, Tail: rank(l.ms, p/100)}
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func unitSeconds(us []unitStats, f func(unitStats) time.Duration) []float64 {
	out := make([]float64, len(us))
	for i, u := range us {
		out[i] = f(u).Seconds()
	}
	return out
}
