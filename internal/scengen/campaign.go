package scengen

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/simconfig"
	"repro/internal/store"
	"repro/internal/trace"
)

// CampaignConfig sizes one fuzzing campaign.
type CampaignConfig struct {
	// Families to draw from; nil means all of them.
	Families []Family
	// N is the number of scenarios per family.
	N int
	// Workers bounds concurrency (0: GOMAXPROCS). The report is
	// bit-identical for every worker count: seeds derive from (family,
	// index) and findings land at their job's slot.
	Workers int
	// CrossCheck re-runs every sharded scenario on a single engine and
	// reports a "shard-determinism" violation if the data fingerprints
	// differ (see CrossCheckShards).
	CrossCheck bool
	// Minimize shrinks each failing scenario to a minimal reproducer
	// (costly: the minimizer re-runs candidates many times).
	Minimize bool
	// Hook observes job progress (optional, concurrency-safe).
	Hook exp.Hook
	// Telemetry gives every scenario run a private counter registry; the
	// fleet totals land in the report's Stats.Counters, and per-run
	// snapshots go to the Store when one is attached. Observation never
	// changes fingerprints or findings.
	Telemetry bool
	// TraceDir, when non-empty, keeps a flight recorder per scenario and
	// exports it to TraceDir/<family>-<index>.jsonl.
	TraceDir string
	// TraceRingCap caps each scenario's flight recorder (0: a default
	// suitable for campaign-sized runs).
	TraceRingCap int
	// Store, when non-nil, persists every scenario run — summary, counter
	// snapshot, trace events — through the fleet's campaign-store sink.
	// The caller owns the writer and its Close.
	Store *store.Writer
	// ObserveTrace forces a flight recorder per scenario even when TraceDir
	// and Store are unset, for executors (the phantom-serve daemon) that
	// attach their own store sink to the fleet after building the jobs.
	ObserveTrace bool
}

// Finding is one scenario that violated an invariant.
type Finding struct {
	Family Family
	Index  int
	Seed   uint64
	// Text is the scenario's canonical simconfig text.
	Text string
	// Violations the run triggered, in Check's deterministic order.
	Violations []Violation
	// Minimized is the shrunk reproducer's canonical text (empty when
	// minimization was off or could not shrink anything).
	Minimized string
}

// CampaignReport is a campaign's deterministic outcome.
type CampaignReport struct {
	Scenarios int
	// Findings in (family, index) order regardless of worker scheduling.
	Findings []Finding
	Stats    runner.Stats
}

// Campaign is a built-but-not-yet-run campaign: the fleet jobs plus the
// finding slots they write into. It exists so any executor — RunCampaign
// locally, the phantom-serve daemon remotely — can run the same jobs on its
// own fleet (with its own context, store sink and live hooks) and still
// collect findings deterministically.
type Campaign struct {
	cfg      CampaignConfig
	families []Family
	jobs     []runner.Job
	slots    []*Finding
}

// NewCampaign expands cfg into one fleet job per scenario. Findings are
// written into per-job slots (one writer each), compacted in order by
// Finish after the fleet drains.
func NewCampaign(cfg CampaignConfig) (*Campaign, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("scengen: campaign needs N > 0, got %d", cfg.N)
	}
	families := cfg.Families
	if len(families) == 0 {
		families = Families()
	}
	observeTrace := cfg.TraceDir != "" || cfg.Store != nil || cfg.ObserveTrace
	ringCap := cfg.TraceRingCap
	if ringCap <= 0 {
		ringCap = 1 << 12
	}
	c := &Campaign{cfg: cfg, families: families, slots: make([]*Finding, len(families)*cfg.N)}
	for fi, fam := range families {
		for i := 0; i < cfg.N; i++ {
			fam, i, slot := fam, i, &c.slots[fi*cfg.N+i]
			var opts exp.Options
			if observeTrace {
				// One recorder per job: tracers are single-goroutine like
				// engines. The fleet's store sink reads it back from
				// Opts.Trace after the job lands.
				opts.Trace = trace.New(ringCap)
			}
			c.jobs = append(c.jobs, runner.Job{
				Def: exp.Definition{
					ID:    "fuzz/" + string(fam),
					Title: "scenario fuzz: " + string(fam),
					Run: func(o exp.Options) (*exp.Result, error) {
						f, err := runOne(fam, i, o.Seed, cfg.CrossCheck, cfg.Minimize,
							Observe{Telemetry: o.Telemetry, Trace: o.Trace})
						if err != nil {
							return nil, err
						}
						*slot = f
						res := &exp.Result{ID: "fuzz/" + string(fam), Summary: map[string]float64{"violations": 0}}
						if f != nil {
							res.Summary["violations"] = float64(len(f.Violations))
						}
						return res, nil
					},
				},
				Opts:       opts,
				SweepIndex: i,
				Name:       fmt.Sprintf("fuzz/%s[%d]", fam, i),
			})
		}
	}
	return c, nil
}

// Jobs returns the campaign's fleet jobs in (family, index) order. The
// slice is the campaign's own: run it, don't reorder it.
func (c *Campaign) Jobs() []runner.Job { return c.jobs }

// Finding returns the finding of job i (nil: every invariant held). Valid
// once job i has completed — the slot is written by the job's own Run, so
// any caller ordered after that completion (an OnResult callback for i, or
// anything after the fleet drains) reads it race-free.
func (c *Campaign) Finding(i int) *Finding { return c.slots[i] }

// Finish compacts the findings into a deterministic report and exports the
// per-scenario traces when the campaign was configured with a TraceDir.
// Call it exactly once, after the fleet has drained.
func (c *Campaign) Finish(stats runner.Stats) (*CampaignReport, error) {
	if c.cfg.TraceDir != "" {
		if err := exportTraces(c.cfg.TraceDir, c.jobs); err != nil {
			return nil, err
		}
	}
	rep := &CampaignReport{Scenarios: len(c.jobs), Stats: stats}
	for _, f := range c.slots {
		if f != nil {
			rep.Findings = append(rep.Findings, *f)
		}
	}
	return rep, nil
}

// RunCampaign generates and checks cfg.N scenarios for every family, in
// parallel, deterministically.
func RunCampaign(cfg CampaignConfig) (*CampaignReport, error) {
	c, err := NewCampaign(cfg)
	if err != nil {
		return nil, err
	}
	fleet := &runner.Fleet{Workers: cfg.Workers, Hook: cfg.Hook, Telemetry: cfg.Telemetry, Store: cfg.Store}
	results, stats := fleet.Run(c.Jobs())
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("scengen: %s: %w", r.Job.Name, r.Err)
		}
	}
	return c.Finish(stats)
}

// exportTraces writes each job's retained flight-recorder events to
// dir/<family>-<index>.jsonl (the job names contain '/' and brackets, so
// files are keyed by the family and sweep index instead).
func exportTraces(dir string, jobs []runner.Job) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := range jobs {
		tr := jobs[i].Opts.Trace
		if tr == nil {
			continue
		}
		family := strings.TrimPrefix(jobs[i].Def.ID, "fuzz/")
		path := filepath.Join(dir, fmt.Sprintf("%s-%04d.jsonl", family, jobs[i].SweepIndex))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := tr.ExportJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// runOne generates, runs and checks scenario (family, index); seed is the
// fleet-derived seed (equal to DeriveSeed(fam, index)). A nil Finding means
// the scenario held every invariant. The observation sinks attach to the
// primary run only: the cross-check re-run compares fingerprints, and
// observation is contractually invisible to those.
func runOne(fam Family, index int, seed uint64, crossCheck, minimize bool, obs Observe) (*Finding, error) {
	spec, text, err := Generate(fam, seed)
	if err != nil {
		return nil, err
	}
	o, err := RunSpecObserved(spec, obs)
	if err != nil {
		return nil, fmt.Errorf("scenario %s[%d] failed to run: %w\n%s", fam, index, err, text)
	}
	violations := Check(o)

	if crossCheck {
		v, err := CrossCheckShards(spec, o)
		if err != nil {
			return nil, fmt.Errorf("scenario %s[%d]: %w", fam, index, err)
		}
		violations = append(violations, v...)
	}

	if len(violations) == 0 {
		return nil, nil
	}
	f := &Finding{Family: fam, Index: index, Seed: seed, Text: text, Violations: violations}
	if minimize && violations[0].Name != "shard-determinism" {
		min := Minimize(spec, violations[0].Name)
		if mt, err := simconfig.Emit(min); err == nil && mt != text {
			f.Minimized = mt
		}
	}
	return f, nil
}

// CrossCheckShards is the sharded-vs-single-engine cross-check: when o, the
// outcome of running spec, came from a sharded run, it re-runs spec on one
// engine and reports a "shard-determinism" violation if the data
// fingerprints differ. An unsharded outcome needs no re-run and yields none.
func CrossCheckShards(spec *simconfig.Spec, o *Outcome) ([]Violation, error) {
	if o.Shards <= 1 {
		return nil, nil
	}
	single, err := RunSpec(Unsharded(spec))
	if err != nil {
		return nil, fmt.Errorf("single-engine run failed: %w", err)
	}
	if single.DataFingerprint == o.DataFingerprint {
		return nil, nil
	}
	return []Violation{{"shard-determinism", fmt.Sprintf(
		"%d-shard and single-engine runs disagree:\n  %s\nvs\n  %s",
		o.Shards, o.DataFingerprint, single.DataFingerprint)}}, nil
}

// Unsharded returns a copy of spec with the sharding directives cleared, so
// the same scenario runs single-engine — the reference side of the
// sharded-vs-unsharded cross-check.
func Unsharded(spec *simconfig.Spec) *simconfig.Spec {
	un := *spec
	un.Config.Shards, un.Config.Partition = 0, nil
	if spec.Graph != nil {
		g := *spec.Graph
		g.Shards, g.Partition = 0, nil
		un.Graph = &g
	}
	return &un
}

// Summary renders a campaign report as stable, human-readable text.
func (r *CampaignReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d scenarios, %d findings\n", r.Scenarios, len(r.Findings))
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "%s[%d] seed=%d:\n", f.Family, f.Index, f.Seed)
		for _, v := range f.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	return b.String()
}
