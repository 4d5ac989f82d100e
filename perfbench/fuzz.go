package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/api"
	"repro/internal/runner"
	"repro/internal/store"
)

// fuzzFamilies and fuzzDraws pin the campaign: a family the generator no
// longer knows fails the benchmark instead of shrinking the campaign.
var fuzzFamilies = []string{"parkinglot", "fattree", "waxman", "flashcrowd", "webmix", "transient", "shardedmesh"}

const (
	fuzzDraws   = 8 // per family
	fuzzWorkers = 2
)

// fuzzWorkload is an invariant-fuzz campaign the way phantom-fuzz -n 8
// -telemetry -store runs it: draws 0–7 of every family on a two-worker
// fleet, with telemetry, a flight recorder per draw and a fresh phantomdb
// store. The recorders keep the api default of 4096 events, not
// phantom-fuzz's 65536: the campaign allocates every recorder up front,
// and 56 rings of 65536 events would take about 1 GB. The draws are
// fixed, so -seed is recorded but does not change the inputs: draw costs
// are heavy-tailed, and campaigns of seed-selected draws varied by ±20%
// in CPU time from seed to seed on a 2-CPU VM.
//
// The measured phase is the fleet run and the store's seal. After it,
// each unit reopens the sealed store once and reads it back; that
// read-back is the workload's query.
type fuzzWorkload struct {
	jobs  latency // draw start → its store segment committed
	scans latency // the reopen and read-back of the sealed campaign
	rates []float64
	// digests fingerprints each unit's campaign store. The store bytes
	// do not repeat on the current tree: sharded draws persist the
	// wall-clock shard.advance_ns histogram in their counter blocks. The
	// record line reports whether they repeated; it is not a failed
	// operation, because no output the campaign promises is wrong.
	digests []string

	stats    runner.Stats
	counters map[string]uint64
	events   int64
	bytes    int64
	scan     store.ScanStats
	mallocs  []uint64
}

type fuzzUnit struct {
	w       *fuzzWorkload
	expn    *api.Expansion
	dir     string
	sw      *store.Writer
	traced  bool
	results []runner.Result
	stats   runner.Stats
}

func (w *fuzzWorkload) setup(b *bench, traced bool) (unit, error) {
	sp := b.spans.begin("api.expand", 0)
	defer b.spans.end(sp)
	expn, err := api.Expand(api.JobSpec{
		SchemaVersion: api.SchemaVersion,
		Kind:          api.KindFuzz,
		Fuzz:          &api.FuzzSpec{Families: fuzzFamilies, N: fuzzDraws},
		Telemetry:     true,
	}, api.Env{Trace: true})
	if err != nil {
		return nil, err
	}
	if len(expn.Jobs) != len(fuzzFamilies)*fuzzDraws {
		return nil, fmt.Errorf("campaign has %d draws, the benchmark pins %d", len(expn.Jobs), len(fuzzFamilies)*fuzzDraws)
	}
	dir, err := b.scratch("fuzz")
	if err != nil {
		return nil, err
	}
	sw, err := store.Create(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	return &fuzzUnit{w: w, expn: expn, dir: dir, sw: sw, traced: traced}, nil
}

func (u *fuzzUnit) run(b *bench) error {
	w := u.w
	jobs := u.expn.Jobs
	fleetSpan := b.spans.begin("runner.fleet", 0)
	spans := make([]int, len(jobs))
	starts := make([]time.Time, len(jobs))
	timeJobs(jobs, func(i int) {
		starts[i] = time.Now()
		spans[i] = b.spans.begin(jobs[i].Label(), fleetSpan)
	})
	fleet := &runner.Fleet{
		Workers:   fuzzWorkers,
		Telemetry: true,
		Store:     u.sw,
		OnResult: func(i int, _ runner.Result) {
			b.spans.end(spans[i])
			w.jobs.add(time.Since(starts[i]))
		},
	}
	u.results, u.stats = fleet.Run(jobs)
	b.spans.end(fleetSpan)

	sealSpan := b.spans.begin("store.close", 0)
	b.try(u.sw.Close())
	b.spans.end(sealSpan)
	return nil
}

// verify counts every finding as a failed operation, reads the sealed
// store back and fingerprints it.
func (u *fuzzUnit) verify(b *bench) error {
	w := u.w
	rep, err := u.expn.Finish(u.results, u.stats)
	if err != nil {
		return err
	}
	for _, rr := range rep.Results {
		switch {
		case rr.Error != "":
			b.try(fmt.Errorf("%s seed=%d: %s", rr.ID, rr.Seed, rr.Error))
		case len(rr.Violations) > 0:
			b.try(fmt.Errorf("%s seed=%d: finding: %s", rr.ID, rr.Seed, rr.Violations[0]))
		default:
			b.try(nil)
		}
	}

	// The read-back starts from a collected heap, as a separate reader
	// process would, so the campaign's garbage does not time it.
	runtime.GC()
	t0 := time.Now()
	err = u.readBack()
	d := time.Since(t0)
	w.scans.add(d)
	w.rates = append(w.rates, 1/d.Seconds())
	b.try(err)

	digest, size, err := campaignDigest(u.dir)
	if err != nil {
		return err
	}
	w.digests = append(w.digests, digest)
	if u.traced {
		w.stats, w.counters, w.bytes = u.stats, u.stats.Counters, size
		w.events = 0
		for _, j := range u.expn.Jobs {
			w.events += j.Opts.Trace.Seen()
		}
	} else {
		w.mallocs = append(w.mallocs, u.stats.Mallocs)
	}
	return nil
}

// storedRun names one run in a campaign store.
type storedRun struct {
	exp   string
	sweep int
}

// readBack reopens the sealed campaign and reads back its summaries,
// counters and flight-recorder events. The store must hold one summary
// per draw, the counters the draw reported and every event its recorder
// kept.
func (u *fuzzUnit) readBack() error {
	counters := map[storedRun]map[string]uint64{}
	for _, r := range u.results {
		if r.Res != nil && len(r.Res.Counters) > 0 {
			counters[storedRun{r.Job.Def.ID, r.Job.SweepIndex}] = r.Res.Counters
		}
	}
	all := store.Query{Sweep: store.AnySweep}
	summaries, stored, events := map[storedRun]int{}, map[storedRun]map[string]uint64{}, map[storedRun]int{}
	rd, err := store.Open(u.dir)
	if err != nil {
		return err
	}
	if err := rd.Summaries(all, func(rs store.RunSummary) error {
		summaries[storedRun{rs.Experiment, rs.Sweep}]++
		return nil
	}); err != nil {
		return err
	}
	if err := rd.Counters(all, func(rc store.RunCounters) error {
		stored[storedRun{rc.Experiment, rc.Sweep}] = rc.Counters
		return nil
	}); err != nil {
		return err
	}
	if u.traced {
		u.w.scan = rd.Stats()
	}
	if err := rd.Trace(all, func(tc store.TraceChunk) error {
		events[storedRun{tc.Experiment, tc.Sweep}] += len(tc.Events)
		return nil
	}); err != nil {
		return err
	}
	for _, j := range u.expn.Jobs {
		r := storedRun{j.Def.ID, j.SweepIndex}
		switch {
		case summaries[r] != 1:
			return fmt.Errorf("store holds %d summaries for %s, want 1", summaries[r], j.Label())
		case !maps.Equal(stored[r], counters[r]):
			return fmt.Errorf("store holds %d counters for %s, not the %d it reported", len(stored[r]), j.Label(), len(counters[r]))
		case events[r] != len(j.Opts.Trace.Events()):
			return fmt.Errorf("store holds %d trace events for %s, its recorder kept %d", events[r], j.Label(), len(j.Opts.Trace.Events()))
		}
	}
	if len(summaries) != len(u.expn.Jobs) || len(stored) != len(counters) {
		return fmt.Errorf("store holds summaries of %d runs and counters of %d, want %d and %d",
			len(summaries), len(stored), len(u.expn.Jobs), len(counters))
	}
	return nil
}

func (u *fuzzUnit) close() error {
	// A set-up-only unit never ran, so its writer is still open; after
	// run, Close is a no-op whose error run already counted.
	_ = u.sw.Close()
	return os.RemoveAll(u.dir)
}

// campaignDigest hashes a campaign directory's files in name order.
func campaignDigest(dir string) (string, int64, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.pdb"))
	if err != nil {
		return "", 0, err
	}
	h := sha256.New()
	var size int64
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return "", 0, err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(name), len(data))
		h.Write(data)
		size += int64(len(data))
	}
	return hex.EncodeToString(h.Sum(nil)), size, nil
}

func (w *fuzzWorkload) report(b *bench, traced bool, m map[string]metric, rec *record) {
	draws := len(fuzzFamilies) * fuzzDraws
	jobs, scans := w.jobs.summary(minUnits*draws), w.scans.summary(minUnits)
	rec.Samples = map[string]summary{"job_sealed": jobs, "query": scans}
	repeat := true
	for _, d := range w.digests {
		repeat = repeat && d == w.digests[0]
	}
	rec.Exact = map[string]any{"store_digest": w.digests, "store_bytes_repeat": repeat, "mallocs_per_unit": w.mallocs}
	if !traced {
		m["job_sealed_p50_ms"] = metric{jobs.P50, "ms"}
		m["job_sealed_tail_ms"] = metric{jobs.Tail, "ms"}
		m["query_p50_ms"] = metric{scans.P50, "ms"}
		m["query_tail_ms"] = metric{scans.Tail, "ms"}
		m["queries_per_s"] = metric{median(w.rates), "1/s"}
		return
	}
	simCounters(b, m, w.counters)
	fleetMetrics(m, w.stats)
	m["runtime.allocs_per_run"] = metric{w.stats.AllocsPerRun(), "count"}
	m["trace.events"] = metric{float64(w.events), "count"}
	m["store.campaign_bytes"] = metric{float64(w.bytes), "B"}
	m["store.bytes_per_run"] = metric{float64(w.bytes) / float64(draws), "B"}
	scanMetrics(m, w.scan)
	profileMetrics(b, m)
}

// scanMetrics reports a store reader's pushdown work.
func scanMetrics(m map[string]metric, s store.ScanStats) {
	m["store.blocks_scanned"] = metric{float64(s.BlocksScanned), "count"}
	m["store.blocks_skipped"] = metric{float64(s.BlocksSkipped), "count"}
	m["store.bytes_read"] = metric{float64(s.BytesRead), "B"}
	if n := s.BlocksScanned + s.BlocksSkipped; n > 0 {
		m["store.pushdown_frac"] = metric{float64(s.BlocksSkipped) / float64(n), "fraction"}
	}
}

// profileMetrics reports the CPU time of the scenario and store steps,
// which run inside the fleet where the benchmark cannot wrap them.
func profileMetrics(b *bench, m map[string]metric) {
	m["scengen.generate_ms"] = metric{b.prof.inclusiveMS(internalPrefix + "scengen.Generate"), "ms"}
	m["scengen.run_ms"] = metric{b.prof.inclusiveMS(internalPrefix + "scengen.RunSpec"), "ms"}
	m["scengen.check_ms"] = metric{b.prof.inclusiveMS(internalPrefix + "scengen.Check"), "ms"}
	m["store.encode_ms"] = metric{b.prof.inclusiveMS(internalPrefix + "store.(*Segment).Add"), "ms"}
	m["store.commit_ms"] = metric{b.prof.inclusiveMS(internalPrefix + "store.(*Writer).Commit"), "ms"}
}
