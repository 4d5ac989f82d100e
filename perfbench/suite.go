package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/exp"
	"repro/internal/runner"
)

// suiteWorkload runs the 27 registered experiments at their quick
// durations on a one-worker fleet, with telemetry, trace and store off,
// and golden-checks every result. The experiments use fixed internal
// seeds, so -seed is recorded but does not change the inputs.
type suiteWorkload struct {
	jobs    latency // experiment start → golden-checked result
	checks  latency // one golden comparison
	rates   []float64
	mallocs []uint64

	stats    runner.Stats
	counters map[string]uint64
}

type suiteUnit struct {
	w       *suiteWorkload
	expn    *api.Expansion
	goldens []runner.Snapshot
	traced  bool
}

func (w *suiteWorkload) setup(b *bench, traced bool) (unit, error) {
	sp := b.spans.begin("api.expand", 0)
	defer b.spans.end(sp)
	expn, err := api.Expand(api.JobSpec{
		SchemaVersion: api.SchemaVersion,
		Kind:          api.KindSuite,
		Suite:         &api.SuiteSpec{Quick: true},
	}, api.Env{})
	if err != nil {
		return nil, err
	}
	if len(expn.Jobs) != len(suiteIDs) {
		return nil, fmt.Errorf("registry has %d experiments, the benchmark pins %d", len(expn.Jobs), len(suiteIDs))
	}
	u := &suiteUnit{w: w, expn: expn, traced: traced, goldens: make([]runner.Snapshot, len(suiteIDs))}
	dir := filepath.Join(b.root, "testdata", "golden")
	for i, j := range expn.Jobs {
		if j.Label() != suiteIDs[i] {
			return nil, fmt.Errorf("registry experiment %d is %s, the benchmark pins %s", i, j.Label(), suiteIDs[i])
		}
		if u.goldens[i], err = runner.ReadSnapshot(dir, j.Label()); err != nil {
			return nil, err
		}
	}
	return u, nil
}

func (u *suiteUnit) run(b *bench) error {
	w := u.w
	fleetSpan := b.spans.begin("runner.fleet", 0)
	spans := make([]int, len(u.expn.Jobs))
	starts := make([]time.Time, len(u.expn.Jobs))
	timeJobs(u.expn.Jobs, func(i int) {
		starts[i] = time.Now()
		spans[i] = b.spans.begin("exp."+u.expn.Jobs[i].Def.ID, fleetSpan)
	})
	tol := runner.DefaultTolerance()
	var checking time.Duration
	fleet := &runner.Fleet{
		Workers:   1,
		Telemetry: u.traced,
		OnResult: func(i int, r runner.Result) {
			b.spans.end(spans[i])
			if !b.try(r.Err) {
				return
			}
			t0 := time.Now()
			drifts := runner.Compare(runner.Snap(r), u.goldens[i], tol)
			d := time.Since(t0)
			checking += d
			w.checks.add(d)
			w.jobs.add(time.Since(starts[i]))
			if len(drifts) > 0 {
				b.fail(fmt.Errorf("%s: golden drift: %v", r.Job.Label(), drifts[0]))
			}
		},
	}
	_, stats := fleet.Run(u.expn.Jobs)
	b.spans.end(fleetSpan)
	w.rates = append(w.rates, float64(len(u.expn.Jobs))/checking.Seconds())
	if u.traced {
		w.stats, w.counters = stats, stats.Counters
	} else {
		w.mallocs = append(w.mallocs, stats.Mallocs)
	}
	return nil
}

// verify has nothing left to check: run golden-checks every result as
// it lands, as phantom-suite does.
func (u *suiteUnit) verify(*bench) error { return nil }

func (u *suiteUnit) close() error { return nil }

// timeJobs wraps every job's Run so that started(i) is called on the
// worker goroutine the moment job i begins. The fleet calls OnResult for
// job i on that same goroutine.
func timeJobs(jobs []runner.Job, started func(i int)) {
	for i := range jobs {
		i, run := i, jobs[i].Def.Run
		jobs[i].Def.Run = func(o exp.Options) (*exp.Result, error) {
			started(i)
			return run(o)
		}
	}
}

func (w *suiteWorkload) report(b *bench, traced bool, m map[string]metric, rec *record) {
	n := minUnits * len(suiteIDs)
	jobs, checks := w.jobs.summary(n), w.checks.summary(n)
	rec.Samples = map[string]summary{"job_sealed": jobs, "query": checks}
	rec.Exact = map[string]any{"mallocs_per_unit": w.mallocs}
	if !traced {
		m["job_sealed_p50_ms"] = metric{jobs.P50, "ms"}
		m["job_sealed_tail_ms"] = metric{jobs.Tail, "ms"}
		m["query_p50_ms"] = metric{checks.P50, "ms"}
		m["query_tail_ms"] = metric{checks.Tail, "ms"}
		m["queries_per_s"] = metric{median(w.rates), "1/s"}
		return
	}
	simCounters(b, m, w.counters)
	fleetMetrics(m, w.stats)
	m["runtime.allocs_per_run"] = metric{w.stats.AllocsPerRun(), "count"}
	for name, ds := range b.spans.durations() {
		if strings.HasPrefix(name, "exp.") {
			m[name+".ms"] = metric{ds[0], "ms"}
		}
	}
}
