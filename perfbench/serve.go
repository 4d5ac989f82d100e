package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/scengen"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
	simrng "repro/internal/workload"
)

const (
	// campaignRuns sizes the pre-ingested campaign the daemon adopts.
	campaignRuns = 10_000
	campaignID   = "campaign-synthetic"
	// minQueries is the fewest queries one unit issues. The query client
	// runs until the job client has finished, so every job runs under
	// query load; the floor gives the query tail a guaranteed sample
	// count.
	minQueries = 500
	// maxConflicts bounds how often a live read retries a job that the
	// daemon reports running before its store exists.
	maxConflicts = 1000
)

// queryKinds is the query client's cycle, one query of each kind: a
// windowed /series on the adopted campaign, a full /summary scan of it,
// a live /summary of the running job and a cross-job /v1/query.
var queryKinds = []string{"window", "scan", "live", "cross"}

// serveWorkload is an in-process phantom-serve daemon on a loopback
// listener, loaded by two closed-loop clients: a job client that submits
// scengen scenario jobs one at a time and streams each to its sealed
// report, and a query client that cycles windowed, full-scan, live and
// cross-job analytics queries until the job client has finished. Every
// unit submits the same draws, 0–7 of each fuzz family, in an order the
// seed permutes; the seed also selects the windowed queries' target runs.
// Draw costs spread widely, so seed-selected draws would move job latency
// percentiles from seed to seed by more than any bound could hold.
type serveWorkload struct {
	jobs    latency    // submit → sealed report line
	queries latency    // any query of the mix
	byKind  [4]latency // per entry of queryKinds
	rates   []float64
	// conflicts counts live reads the daemon answered 409 Conflict
	// because it reports a job running before it creates the job's
	// store. The read is retried; the record line reports the count.
	conflicts atomic.Int64

	counters map[string]uint64
	fleet    runner.Stats
	runs     int
	bytes    int64
	scan     store.ScanStats
}

type scenarioDraw struct{ name, text string }

type serveUnit struct {
	w       *serveWorkload
	dir     string
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	addr    string
	draws   []scenarioDraw
	clients []*http.Transport
	traced  bool
}

func (w *serveWorkload) setup(b *bench, traced bool) (unit, error) {
	dir, err := b.scratch("serve")
	if err != nil {
		return nil, err
	}
	u := &serveUnit{w: w, dir: dir, traced: traced}
	data := filepath.Join(dir, "data")
	sp := b.spans.begin("store.ingest", 0)
	err = ingestCampaign(filepath.Join(data, campaignID))
	b.spans.end(sp)
	if err != nil {
		return nil, err
	}
	sp = b.spans.begin("serve.start", 0)
	u.srv = serve.New(serve.Config{Dir: data, JobWorkers: 1, FleetWorkers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		u.srv.Drain()
		return nil, err
	}
	u.addr = ln.Addr().String()
	u.hs = &http.Server{Handler: u.srv.Handler()}
	u.served = make(chan error, 1)
	go func() { u.served <- u.hs.Serve(ln) }()
	jobs, err := u.client().Jobs()
	b.spans.end(sp)
	if err != nil {
		u.close()
		return nil, err
	}
	if len(jobs) != 1 || jobs[0].ID != campaignID || !jobs[0].Adopted {
		u.close()
		return nil, fmt.Errorf("daemon did not adopt the pre-ingested campaign: %+v", jobs)
	}
	rng := simrng.NewRNG(b.seed)
	// The job client submits the fuzz campaign's draws.
	for _, k := range permutation(rng, len(fuzzFamilies)*fuzzDraws) {
		name, draw := fuzzFamilies[k/fuzzDraws], k%fuzzDraws
		f, err := scengen.ParseFamily(name)
		if err == nil {
			var text string
			_, text, err = scengen.Generate(f, scengen.DeriveSeed(f, draw))
			u.draws = append(u.draws, scenarioDraw{fmt.Sprintf("%s-%d", f, draw), text})
		}
		if err != nil {
			u.close()
			return nil, err
		}
	}
	return u, nil
}

// permutation returns 0…n-1 in an order drawn from rng.
func permutation(rng *simrng.RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
		j := int(rng.Uint64() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// ingestCampaign writes the synthetic campaign: per run one 64-point
// series, a summary and a counter snapshot, run i's series covering
// [1000·i, 1000·i+63] so a time window selects one run.
func ingestCampaign(dir string) error {
	w, err := store.Create(dir, store.Options{})
	if err != nil {
		return err
	}
	pts := make([]metrics.Point, 64)
	for i := 0; i < campaignRuns; i++ {
		seg := w.NewSegment(store.RunMeta{Experiment: "sweep/acr", Sweep: i, End: sim.Time(1000*i + 63)})
		for p := range pts {
			pts[p] = metrics.Point{T: sim.Time(1000*i + p), V: float64(i) + float64(p)/64}
		}
		seg.AddSeries("acr", pts)
		seg.AddSummary(map[string]float64{"goodput": float64(i), "jain_normalized": 0.99})
		seg.AddCounters(map[string]uint64{"link.cells_in": uint64(i * 64), "link.cells_out": uint64(i * 63)})
		if err := w.Append(seg); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// client returns an API client with its own connection to the daemon.
func (u *serveUnit) client() *api.Client {
	t := &http.Transport{}
	u.clients = append(u.clients, t)
	c := api.NewClient(u.addr)
	c.HTTP = &http.Client{Transport: t}
	return c
}

// sealedJob is a finished scenario job the cross-job query can visit.
type sealedJob struct {
	id      string
	metrics int
}

func (u *serveUnit) run(b *bench) error {
	var (
		mu      sync.Mutex
		current string
		sealed  []sealedJob
		wg      sync.WaitGroup
	)
	// The query client starts once the first job is submitted, so its
	// live reads always have a job to read.
	started := make(chan struct{})
	var startOnce sync.Once
	start := func() { startOnce.Do(func() { close(started) }) }
	var jobsDone atomic.Bool
	jobClient, queryClient := u.client(), u.client()
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer start()
		defer jobsDone.Store(true)
		for _, d := range u.draws {
			id, summary := u.runJob(b, jobClient, d, func(id string) {
				mu.Lock()
				current = id
				mu.Unlock()
				start()
			})
			if summary > 0 {
				mu.Lock()
				sealed = append(sealed, sealedJob{id, summary})
				mu.Unlock()
			}
		}
	}()
	var (
		querying, retrying time.Duration
		queries            int
	)
	go func() {
		defer wg.Done()
		<-started
		q0 := time.Now()
		rng := simrng.NewRNG(b.seed)
		for ; queries < minQueries || !jobsDone.Load(); queries++ {
			// The cross-job query visits the adopted campaign (two
			// metrics at sweep 0) and the last two sealed jobs.
			mu.Lock()
			live, cross, want := current, []string{campaignID}, 2
			for _, j := range sealed[max(0, len(sealed)-2):] {
				cross = append(cross, j.id)
				want += j.metrics
			}
			mu.Unlock()
			retrying += u.query(b, queryClient, queries, rng, live, cross, want)
		}
		querying = time.Since(q0) - retrying
	}()
	wg.Wait()
	u.w.rates = append(u.w.rates, float64(queries)/querying.Seconds())
	if u.traced {
		size, err := jobStoreBytes(filepath.Join(u.dir, "data"))
		if err != nil {
			return err
		}
		u.w.bytes = size
	}
	return nil
}

// runJob submits one scenario job and streams it to its sealed report.
// It returns the job ID and, when the job sealed cleanly, its run's
// summary metric count.
func (u *serveUnit) runJob(b *bench, c *api.Client, d scenarioDraw, submitted func(id string)) (string, int) {
	w := u.w
	t0 := time.Now()
	jobSpan := b.spans.begin("serve.job", 0)
	defer b.spans.end(jobSpan)
	sp := b.spans.begin("serve.submit", jobSpan)
	st, err := c.Submit(api.JobSpec{
		Kind:      api.KindScenario,
		Scenario:  &api.ScenarioSpec{Text: d.text, Name: d.name},
		Telemetry: u.traced,
	})
	b.spans.end(sp)
	if !b.try(err) {
		return "", 0
	}
	submitted(st.ID)
	sp = b.spans.begin("serve.first_result", jobSpan)
	var run *api.RunResult
	rep, err := c.Results(st.ID, func(rr api.RunResult) {
		if run == nil {
			b.spans.end(sp)
			sp = b.spans.begin("serve.seal", jobSpan)
		}
		run = &rr
	})
	b.spans.end(sp)
	w.jobs.add(time.Since(t0))
	switch {
	case err != nil:
	case rep.Job == nil || rep.Job.State != api.JobDone:
		err = fmt.Errorf("%s: job ended %+v", d.name, rep.Job)
	case run == nil:
		err = fmt.Errorf("%s: no run result before the report line", d.name)
	case run.Error != "":
		err = fmt.Errorf("%s: %s", d.name, run.Error)
	case len(run.Violations) > 0:
		err = fmt.Errorf("%s: finding: %s", d.name, run.Violations[0])
	}
	if !b.try(err) {
		return st.ID, 0
	}
	if u.traced {
		if w.counters == nil {
			w.counters = map[string]uint64{}
		}
		telemetry.Merge(w.counters, run.Counters)
		w.fleet.Workers = rep.Stats.Workers
		w.fleet.Wall += time.Duration(rep.Stats.WallMS * float64(time.Millisecond))
		w.fleet.WorkWall += time.Duration(rep.Stats.WorkMS * float64(time.Millisecond))
		w.fleet.Mallocs += rep.Stats.Mallocs
		w.runs++
	}
	return st.ID, len(run.Summary)
}

// query issues the n-th query of the cycle and checks its answer. It
// returns the time spent on live reads the daemon answered with 409
// Conflict before the job's store existed; that time is left out of the
// query's latency.
func (u *serveUnit) query(b *bench, c *api.Client, n int, rng *simrng.RNG, live string, cross []string, crossRows int) time.Duration {
	k := n % len(queryKinds)
	kind := queryKinds[k]
	rows := 0
	count := func([]byte) error { rows++; return nil }
	jobPath := api.PathPrefix + "/jobs/"
	var retrying time.Duration
	t0 := time.Now()
	sp := b.spans.begin("serve.query_"+kind, 0)
	var stats api.QueryStats
	var err error
	switch kind {
	case "window":
		target := int(rng.Uint64() % campaignRuns)
		stats, err = c.QueryNDJSON(jobPath+campaignID+"/series", api.QueryValues(store.Query{
			Name: "acr", Sweep: store.AnySweep,
			From: sim.Time(1000 * target), To: sim.Time(1000*target + 63),
		}), count)
		if err == nil && (rows != 1 || stats.BlocksScanned != 1) {
			err = fmt.Errorf("windowed query: %d rows from %d scanned blocks, want 1 from 1", rows, stats.BlocksScanned)
		}
	case "scan":
		stats, err = c.QueryNDJSON(jobPath+campaignID+"/summary", api.QueryValues(store.Query{Sweep: store.AnySweep}), count)
		if err == nil && rows != campaignRuns {
			err = fmt.Errorf("full summary scan: %d rows, want %d", rows, campaignRuns)
		}
	case "live":
		for tries := 0; ; tries++ {
			_, err = c.QueryNDJSON(jobPath+live+"/summary", api.QueryValues(store.Query{Sweep: store.AnySweep}), count)
			if err == nil || !strings.Contains(err.Error(), http.StatusText(http.StatusConflict)) || tries == maxConflicts {
				break
			}
			u.w.conflicts.Add(1)
			retrying += time.Since(t0)
			t0 = time.Now()
		}
		if err == nil && rows > 1 {
			err = fmt.Errorf("live summary of %s: %d rows, want at most 1", live, rows)
		}
	case "cross":
		_, err = c.CrossSummaries(cross, store.Query{}, func(api.AggregateRow) error { rows++; return nil })
		if err == nil && rows != crossRows {
			err = fmt.Errorf("cross-job summary over %s: %d rows, want %d", strings.Join(cross, ","), rows, crossRows)
		}
	}
	b.spans.end(sp)
	d := time.Since(t0)
	u.w.queries.add(d)
	u.w.byKind[k].add(d)
	b.try(err)
	if u.traced && (kind == "window" || kind == "scan") && n < len(queryKinds) {
		// The first windowed and full-scan queries give the exact
		// pushdown counts.
		u.w.scan.BlocksScanned += stats.BlocksScanned
		u.w.scan.BlocksSkipped += stats.BlocksSkipped
		u.w.scan.BytesRead += stats.BytesRead
	}
	return retrying
}

// jobStoreBytes sums the size of every job store under the data root,
// leaving out the adopted campaign.
func jobStoreBytes(data string) (int64, error) {
	names, err := filepath.Glob(filepath.Join(data, "job-*", "*.pdb"))
	if err != nil {
		return 0, err
	}
	var size int64
	for _, name := range names {
		info, err := os.Stat(name)
		if err != nil {
			return 0, err
		}
		size += info.Size()
	}
	return size, nil
}

// verify has nothing left to check: the clients check every answer as
// it arrives.
func (u *serveUnit) verify(*bench) error { return nil }

func (u *serveUnit) close() error {
	u.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := u.hs.Shutdown(ctx)
	if serr := <-u.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	for _, t := range u.clients {
		t.CloseIdleConnections()
	}
	if rerr := os.RemoveAll(u.dir); err == nil {
		err = rerr
	}
	return err
}

func (w *serveWorkload) report(b *bench, traced bool, m map[string]metric, rec *record) {
	jobs, queries := w.jobs.summary(minUnits*len(fuzzFamilies)*fuzzDraws), w.queries.summary(minUnits*minQueries)
	samples := map[string]summary{"job_sealed": jobs, "query": queries}
	for k, kind := range queryKinds {
		samples["query_"+kind] = w.byKind[k].summary(minUnits * minQueries / len(queryKinds))
	}
	rec.Samples = samples
	rec.Exact = map[string]any{"live_read_conflicts": w.conflicts.Load()}
	if !traced {
		m["job_sealed_p50_ms"] = metric{jobs.P50, "ms"}
		m["job_sealed_tail_ms"] = metric{jobs.Tail, "ms"}
		m["query_p50_ms"] = metric{queries.P50, "ms"}
		m["query_tail_ms"] = metric{queries.Tail, "ms"}
		m["queries_per_s"] = metric{median(w.rates), "1/s"}
		return
	}
	simCounters(b, m, w.counters)
	fleetMetrics(m, w.fleet)
	if w.runs > 0 {
		m["runtime.allocs_per_run"] = metric{float64(w.fleet.Mallocs) / float64(w.runs), "count"}
		m["store.bytes_per_run"] = metric{float64(w.bytes) / float64(w.runs), "B"}
	}
	scanMetrics(m, w.scan)
	profileMetrics(b, m)
	spans := b.spans.durations()
	for _, name := range []string{"submit", "first_result", "seal"} {
		m["serve."+name+"_ms"] = metric{median(spans["serve."+name]), "ms"}
	}
	for _, kind := range queryKinds {
		m["serve.query_"+kind+"_ms"] = metric{median(spans["serve.query_"+kind]), "ms"}
	}
}
