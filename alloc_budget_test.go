package repro

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The PR 2 cell-path cost on this workload, measured before the typed
// scheduling API: one closure per scheduled cell event plus per-cell heap
// escapes put suite_e01_quick at ~753k allocs/op and ~34 MB/op. The
// typed-payload refactor must keep the suite at least 60% below these
// numbers (it is in fact >99% below).
var cellPathBaseline = benchStats{NsPerOp: 87627164, AllocsPerOp: 752726, BytesPerOp: 34130939}

// benchStats is one measured workload's cost.
type benchStats struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// budgetFile mirrors testdata/alloc_budget.json.
type budgetFile struct {
	SchemaVersion int                    `json:"schema_version"`
	Note          string                 `json:"note"`
	Budgets       map[string]allocBudget `json:"budgets"`
}

type allocBudget struct {
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

func loadBudgets(t *testing.T) budgetFile {
	t.Helper()
	raw, err := os.ReadFile("testdata/alloc_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf budgetFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatalf("testdata/alloc_budget.json: %v", err)
	}
	return bf
}

// engineHotPath drives 1000 events through self-rescheduling chains — the
// port-transmit pattern that dominates experiment run time.
func engineHotPath() {
	e := sim.NewEngine()
	for s := 0; s < 8; s++ {
		gap := sim.Duration(700 + 13*s)
		left := 125
		var tick sim.Handler
		tick = func(en *sim.Engine) {
			left--
			if left > 0 {
				en.After(gap, tick)
			}
		}
		e.After(gap, tick)
	}
	e.Run()
}

// measureHotPath benchmarks the 1000-event engine chain.
func measureHotPath() benchStats {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			engineHotPath()
		}
	})
	return benchStats{NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}
}

// measureSuiteE01 benchmarks the E01 experiment at quick duration — the
// representative end-to-end cell path (sources, links, switch algorithm,
// metrics sampling).
func measureSuiteE01(t testing.TB) benchStats {
	def, ok := exp.Get("E01")
	if !ok {
		t.Fatal("E01 not registered")
	}
	d := runner.QuickDuration("E01")
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := exp.Execute(def, exp.Options{Quiet: true, Duration: d}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	return benchStats{NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}
}

// measureSuiteE01Telemetry is measureSuiteE01 with the full observability
// stack on: a counter registry and a flight recorder at the CLI ring
// capacity. The registry and ring are created once and Reset per op, the
// reuse pattern the suite's sweeps use, so the measurement is the
// steady-state cost of observing the run — budgeted at ≤2× the disabled
// path.
func measureSuiteE01Telemetry(t testing.TB) benchStats {
	def, ok := exp.Get("E01")
	if !ok {
		t.Fatal("E01 not registered")
	}
	d := runner.QuickDuration("E01")
	reg := telemetry.New()
	tr := trace.New(cli.TraceRingCap)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reg.Reset()
			tr.Reset()
			res, err := exp.Execute(def, exp.Options{Quiet: true, Duration: d, Telemetry: reg, Trace: tr}, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Counters) == 0 || tr.Seen() == 0 {
				b.Fatal("telemetry-on run recorded nothing")
			}
		}
	})
	return benchStats{NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}
}

// TestAllocBudget enforces the committed allocation budgets. It runs in
// the ordinary test suite (CI's bench-cellpath job runs it explicitly) so a
// change that reintroduces a per-cell allocation — a closure in a transmit
// path, a cell escaping to the heap at an observer call — fails the build
// rather than silently regressing throughput.
func TestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	if testing.Short() {
		t.Skip("benchmarking loop; skipped in -short mode")
	}
	bf := loadBudgets(t)
	for _, m := range []struct {
		workload string
		got      benchStats
	}{
		{"engine_hot_path_1000_events", measureHotPath()},
		{"suite_e01_quick", measureSuiteE01(t)},
		{"suite_e01_quick_telemetry", measureSuiteE01Telemetry(t)},
	} {
		budget, ok := bf.Budgets[m.workload]
		if !ok {
			t.Fatalf("no budget for %s in testdata/alloc_budget.json", m.workload)
		}
		if m.got.AllocsPerOp > budget.AllocsPerOp {
			t.Errorf("%s: %d allocs/op exceeds budget %d", m.workload, m.got.AllocsPerOp, budget.AllocsPerOp)
		}
		if m.got.BytesPerOp > budget.BytesPerOp {
			t.Errorf("%s: %d B/op exceeds budget %d", m.workload, m.got.BytesPerOp, budget.BytesPerOp)
		}
		t.Logf("%s: %d allocs/op (budget %d), %d B/op (budget %d), %d ns/op",
			m.workload, m.got.AllocsPerOp, budget.AllocsPerOp,
			m.got.BytesPerOp, budget.BytesPerOp, m.got.NsPerOp)
	}
}

// TestCellPathBenchArtifact measures the end-to-end cell path, compares it
// against the committed PR 2 baseline, and writes the before/after numbers
// as JSON to the path in BENCH_CELLPATH_OUT. It is skipped unless that
// variable is set: CI's bench-cellpath job runs it to publish
// BENCH_cellpath.json, and developers regenerate the committed copy the
// same way. The acceptance gates — ≥60% fewer allocs/op and improved ns/op
// — fail the test if the optimization ever erodes below them.
func TestCellPathBenchArtifact(t *testing.T) {
	out := os.Getenv("BENCH_CELLPATH_OUT")
	if out == "" {
		t.Skip("set BENCH_CELLPATH_OUT=<path> to write the cell-path benchmark artifact")
	}
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}

	got := measureSuiteE01(t)
	base := cellPathBaseline
	artifact := struct {
		SchemaVersion int        `json:"schema_version"`
		Workload      string     `json:"workload"`
		Baseline      benchStats `json:"suite_e01_quick_before"`
		Current       benchStats `json:"suite_e01_quick_after"`
		ReductionPct  float64    `json:"alloc_reduction_pct"`
		SpeedupPct    float64    `json:"ns_per_op_reduction_pct"`
	}{
		SchemaVersion: exp.SchemaVersion,
		Workload:      "E01 at quick duration, end to end",
		Baseline:      base,
		Current:       got,
		ReductionPct:  100 * (1 - float64(got.AllocsPerOp)/float64(base.AllocsPerOp)),
		SpeedupPct:    100 * (1 - float64(got.NsPerOp)/float64(base.NsPerOp)),
	}
	if artifact.ReductionPct < 60 {
		t.Errorf("allocs/op %d is only %.1f%% below baseline %d, want ≥60%%",
			got.AllocsPerOp, artifact.ReductionPct, base.AllocsPerOp)
	}
	if got.NsPerOp >= base.NsPerOp {
		t.Errorf("ns/op %d did not improve on baseline %d", got.NsPerOp, base.NsPerOp)
	}
	t.Logf("%d → %d allocs/op (−%.2f%%), %d → %d ns/op (−%.1f%%)",
		base.AllocsPerOp, got.AllocsPerOp, artifact.ReductionPct, base.NsPerOp, got.NsPerOp, artifact.SpeedupPct)

	b, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, '\n')
	if err := os.WriteFile(out, b, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
