// Package scenario assembles complete experiment topologies — end systems,
// access links, switches, trunks — and records the time series every figure
// of the paper is drawn from. ATM scenarios are linear ("parking lot")
// networks, which cover all of the paper's configurations: a single shared
// link is the two-switch special case, and multi-bottleneck fairness (the
// beat-down experiments) uses longer chains.
package scenario

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/atmnet"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/switchalg"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ATMSessionSpec declares one ABR session over the linear network: it
// enters at switch Entry and exits at switch Exit (Entry < Exit), so it
// crosses trunks Entry..Exit−1.
type ATMSessionSpec struct {
	Name    string
	Entry   int
	Exit    int
	Pattern workload.Pattern
	// Params overrides the end-system parameters; nil means the paper's
	// defaults.
	Params *atm.SourceParams
}

// ATMConfig describes a linear ATM network of Switches switches chained by
// Switches−1 trunks.
type ATMConfig struct {
	Switches int
	// TrunkRateBPS is the trunk line rate in bits/s (default 150 Mb/s).
	TrunkRateBPS float64
	// TrunkRatesBPS optionally gives each trunk its own rate (length must
	// be Switches−1), enabling heterogeneous-capacity configurations like
	// the ATM Forum's generic fairness topologies. Entries of 0 fall back
	// to TrunkRateBPS.
	TrunkRatesBPS []float64
	// TrunkDelay is the per-trunk propagation delay (default 5 µs, the
	// paper's "negligible RTT" regime; WAN scenarios raise it).
	TrunkDelay sim.Duration
	// AccessRateBPS is the end-system access rate (default 150 Mb/s).
	AccessRateBPS float64
	// AccessDelay is the access-link propagation delay (default 1 µs).
	AccessDelay sim.Duration
	// Alg builds the rate-control algorithm instance for each forward
	// output port; nil runs plain FIFO switches.
	Alg switchalg.Factory
	// SampleEvery is the series sampling period (default 1 ms).
	SampleEvery sim.Duration
	// Duration, when set, is the planned run length. It is a sizing hint
	// only — Run is still driven by the caller — letting the recorded
	// series pre-allocate duration/SampleEvery points instead of
	// append-doubling their way up during the run.
	Duration sim.Duration
	// TrunkLossRate injects random cell loss on every trunk (both
	// directions, so data, forward RM and backward RM cells are all at
	// risk) for failure testing. Zero disables injection.
	TrunkLossRate float64
	// Events is an optional transient schedule: mid-run trunk rate changes
	// and loss onset, indexed by trunk. See TransientEvent.
	Events []TransientEvent
	// Trace, if non-nil, records rate changes, drops and fair-share ticks.
	Trace *trace.Tracer
	// Telemetry, if non-nil, receives the scenario's counters: every link,
	// switch, source and algorithm registers its class-level handles here,
	// and Run folds the engine's event statistics in when it returns.
	Telemetry *telemetry.Registry
	Sessions  []ATMSessionSpec
	// Shards splits the chain across N engines synchronized by the
	// conservative epoch-barrier protocol (DESIGN.md §14); 0 or 1 runs the
	// classic single engine. Auto-partitioning is contiguous balanced
	// switch ranges, clamped to the switch count. A sharded run is
	// deterministic at fixed N; metrics match the single-engine run on the
	// golden suite but the (time, seq) interleaving is N-dependent.
	Shards int
	// Partition optionally pins each switch to a shard (length Switches,
	// values in [0, Shards)); nil auto-partitions.
	Partition []int
}

func (c *ATMConfig) setDefaults() {
	if c.TrunkRateBPS == 0 {
		c.TrunkRateBPS = 150e6
	}
	if c.TrunkDelay == 0 {
		c.TrunkDelay = 5 * sim.Microsecond
	}
	if c.AccessRateBPS == 0 {
		c.AccessRateBPS = 150e6
	}
	if c.AccessDelay == 0 {
		c.AccessDelay = sim.Microsecond
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = sim.Millisecond
	}
}

// ATMNet is a built, runnable ATM scenario with its recorded series.
type ATMNet struct {
	Engine   *sim.Engine
	Config   ATMConfig
	Sources  []*atm.Source
	Dests    []*atm.Dest
	Switches []*atmnet.Switch

	// ACR[i] is session i's allowed cell rate over time (cells/s).
	ACR []*metrics.Series
	// Goodput[i] is session i's delivered data rate (cells/s), sampled.
	Goodput []*metrics.Series
	// TrunkQueue[k] is trunk k's output-queue length (cells), sampled.
	TrunkQueue []*metrics.Series
	// FairShare[k] is trunk k's algorithm estimate (MACR for Phantom,
	// EPRCA, APRC; ERS for CAPC), sampled. Nil entries mean no algorithm.
	FairShare []*metrics.Series
	// PeakTrunkQueue[k] is the exact maximum queue seen on trunk k.
	PeakTrunkQueue []int

	trunks        []*atmnet.Link
	fairShareFns  []func() float64
	lastDelivered []int64
	plan          *shardPlan
	trunkShard    []int
	sessionShard  []int
}

// samplesHint sizes a sampled series from the planned run length: one point
// per sampling period plus slack for the start/end samples. Zero (size
// lazily) when no duration hint is available.
func samplesHint(d, every sim.Duration) int {
	if d <= 0 || every <= 0 {
		return 0
	}
	return int(d/every) + 8
}

// Release returns every recorded series' point storage to the metrics pool.
// Call it only when all reads of the series are done — parameter sweeps
// build and discard a full network per point, and pooling the storage keeps
// a sweep's allocation cost flat. The network is unusable afterwards.
func (n *ATMNet) Release() {
	for _, s := range n.ACR {
		s.Release()
	}
	for _, s := range n.Goodput {
		s.Release()
	}
	for _, s := range n.TrunkQueue {
		s.Release()
	}
	for _, s := range n.FairShare {
		if s != nil {
			s.Release()
		}
	}
}

// fairShareGetter extracts the per-port fair-share estimate from a known
// algorithm type, for the FairShare figures.
func fairShareGetter(alg switchalg.Algorithm) func() float64 {
	switch a := alg.(type) {
	case *switchalg.Phantom:
		return func() float64 { return a.Control().MACR() }
	case *switchalg.EPRCA:
		return a.MACR
	case *switchalg.APRC:
		return a.MACR
	case *switchalg.CAPC:
		return a.ERS
	case *switchalg.ExactMaxMin:
		return a.Share
	case *switchalg.ERICA:
		return a.FairShare
	default:
		return nil
	}
}

// BuildATM wires the scenario. Sources are started; call Run to execute.
func BuildATM(cfg ATMConfig) (*ATMNet, error) {
	cfg.setDefaults()
	if cfg.Switches < 2 {
		return nil, fmt.Errorf("scenario: need at least 2 switches, got %d", cfg.Switches)
	}
	if len(cfg.Sessions) == 0 {
		return nil, fmt.Errorf("scenario: no sessions")
	}
	for i, s := range cfg.Sessions {
		if s.Entry < 0 || s.Exit >= cfg.Switches || s.Entry >= s.Exit {
			return nil, fmt.Errorf("scenario: session %d has invalid path %d→%d", i, s.Entry, s.Exit)
		}
	}
	if cfg.TrunkRatesBPS != nil && len(cfg.TrunkRatesBPS) != cfg.Switches-1 {
		return nil, fmt.Errorf("scenario: TrunkRatesBPS has %d entries for %d trunks",
			len(cfg.TrunkRatesBPS), cfg.Switches-1)
	}
	if err := validateEvents(cfg.Events, cfg.Switches-1); err != nil {
		return nil, err
	}

	edges := make([]shard.Edge, cfg.Switches-1)
	for k := range edges {
		edges[k] = shard.Edge{U: k, V: k + 1, Delay: cfg.TrunkDelay, Name: fmt.Sprintf("F%d", k)}
	}
	part, err := resolvePartition(cfg.Switches, cfg.Shards, cfg.Partition,
		func(s int) shard.Partition { return shard.Linear(cfg.Switches, s) })
	if err != nil {
		return nil, err
	}
	plan, err := newShardPlan(part, edges, cfg.Telemetry, cfg.Trace)
	if err != nil {
		return nil, err
	}
	n := &ATMNet{Engine: plan.engines[0], Config: cfg, plan: plan}
	hint := samplesHint(cfg.Duration, cfg.SampleEvery)

	// Switches. Instrument is called unconditionally throughout the build:
	// a nil registry hands out inert handles, so the wiring has no
	// telemetry-enabled branch. Each switch instruments into its owning
	// shard's registry (the caller's own registry when unsharded).
	for i := 0; i < cfg.Switches; i++ {
		sw := atmnet.NewSwitch(fmt.Sprintf("S%d", i))
		sw.Instrument(plan.regFor(i))
		n.Switches = append(n.Switches, sw)
	}

	// Trunks: forward F_k: S_k→S_k+1 with the algorithm; reverse R_k:
	// S_k+1→S_k plain (it carries only backward RM cells here). A trunk
	// whose endpoints live on different shards is a cut link: it keeps its
	// line rate (transmission pacing is shard-local) but hands finished
	// cells to a conduit with zero link delay; the conduit re-applies the
	// real propagation delay on the far shard, so arrival times are
	// identical to the single-engine wiring.
	fwdPorts := make([]*atmnet.Port, cfg.Switches-1)
	revPorts := make([]*atmnet.Port, cfg.Switches-1)
	for k := 0; k < cfg.Switches-1; k++ {
		trunkCPS := atm.CPS(n.trunkRateBPS(k))
		fDelay, rDelay := cfg.TrunkDelay, cfg.TrunkDelay
		var fDst, rDst atm.Sink = n.Switches[k+1], n.Switches[k]
		if plan.part.Cut(k, k+1) {
			fDst = plan.group.NewConduit(fmt.Sprintf("F%d", k), cfg.TrunkDelay, plan.engineFor(k+1), n.Switches[k+1])
			rDst = plan.group.NewConduit(fmt.Sprintf("R%d", k), cfg.TrunkDelay, plan.engineFor(k), n.Switches[k])
			fDelay, rDelay = 0, 0
		}
		fl := atmnet.NewLink(fmt.Sprintf("F%d", k), trunkCPS, fDelay, fDst)
		rl := atmnet.NewLink(fmt.Sprintf("R%d", k), trunkCPS, rDelay, rDst)
		fl.Instrument(plan.regFor(k))
		rl.Instrument(plan.regFor(k + 1))
		// Seeds are assigned unconditionally so a TransientLoss event that
		// turns loss on mid-run draws from a deterministic stream.
		fl.LossSeed = uint64(2*k + 1)
		rl.LossSeed = uint64(2*k + 2)
		if cfg.TrunkLossRate > 0 {
			fl.LossRate = cfg.TrunkLossRate
			rl.LossRate = cfg.TrunkLossRate
		}
		var alg switchalg.Algorithm
		if cfg.Alg != nil {
			alg = cfg.Alg()
		}
		instrumentAlg(alg, plan.regFor(k))
		fwdPorts[k] = n.Switches[k].AddPort(plan.engineFor(k), fl, alg)
		revPorts[k] = n.Switches[k+1].AddPort(plan.engineFor(k+1), rl, nil)
		n.trunks = append(n.trunks, fl)
		n.trunkShard = append(n.trunkShard, plan.shardOf(k))
		n.TrunkQueue = append(n.TrunkQueue, metrics.AcquireSeries(fmt.Sprintf("queue[%s]", fl.Name), hint))
		n.PeakTrunkQueue = append(n.PeakTrunkQueue, 0)
		k := k
		fl.OnQueue = func(_ sim.Time, q int) {
			if q > n.PeakTrunkQueue[k] {
				n.PeakTrunkQueue[k] = q
			}
		}
		if cfg.Trace != nil {
			tr := plan.traceFor(k)
			name := fl.Name
			fl.OnDrop = func(now sim.Time, c atm.Cell) {
				tr.Emit(now, name, "drop",
					trace.I("vc", int64(c.VC)), trace.S("cell", c.Kind.String()))
			}
		}
		if alg != nil {
			n.FairShare = append(n.FairShare, metrics.AcquireSeries(fmt.Sprintf("fairshare[%s]", fl.Name), hint))
		} else {
			n.FairShare = append(n.FairShare, nil)
		}
		n.fairShareFns = append(n.fairShareFns, fairShareGetter(alg))
	}

	if len(cfg.Events) > 0 {
		revLinks := make([]*atmnet.Link, len(revPorts))
		fwdEng := make([]*sim.Engine, len(revPorts))
		revEng := make([]*sim.Engine, len(revPorts))
		fwdTr := make([]*trace.Tracer, len(revPorts))
		for k, p := range revPorts {
			revLinks[k] = p.Link
			fwdEng[k] = plan.engineFor(k)
			revEng[k] = plan.engineFor(k + 1)
			fwdTr[k] = plan.traceFor(k)
		}
		scheduleEvents(cfg.Events, n.trunks, revLinks, fwdEng, revEng, fwdTr)
	}

	// Sessions: source → access → S_entry … S_exit → access → dest, with
	// the reverse path dest → S_exit … S_entry → source for backward RM.
	// End systems are colocated with their switch: the source side lives on
	// S_entry's shard, the destination side on S_exit's — access links
	// never cross shards, only trunks do.
	accessCPS := atm.CPS(cfg.AccessRateBPS)
	for i, spec := range cfg.Sessions {
		vc := atm.VCID(i + 1)
		params := atm.DefaultSourceParams()
		if spec.Params != nil {
			params = *spec.Params
		}
		entryEng, exitEng := plan.engineFor(spec.Entry), plan.engineFor(spec.Exit)
		entryReg, exitReg := plan.regFor(spec.Entry), plan.regFor(spec.Exit)

		// Egress: S_exit → dest (forward), dest → S_exit (reverse).
		entrySw, exitSw := n.Switches[spec.Entry], n.Switches[spec.Exit]
		toDest := atmnet.NewLink(fmt.Sprintf("out%d", i), accessCPS, cfg.AccessDelay, nil)
		toDest.Instrument(exitReg)
		var egressAlg switchalg.Algorithm
		if cfg.Alg != nil {
			egressAlg = cfg.Alg()
		}
		instrumentAlg(egressAlg, exitReg)
		egressPort := exitSw.AddPort(exitEng, toDest, egressAlg)
		fromDest := atmnet.NewLink(fmt.Sprintf("destrev%d", i), accessCPS, cfg.AccessDelay, exitSw)
		fromDest.Instrument(exitReg)
		dest := atm.NewDest(vc, fromDest)
		toDest.Dst = dest

		// Ingress: source → S_entry (forward), S_entry → source (reverse).
		toEntry := atmnet.NewLink(fmt.Sprintf("in%d", i), accessCPS, cfg.AccessDelay, entrySw)
		toEntry.Instrument(entryReg)
		src := atm.NewSource(vc, params, spec.Pattern, toEntry)
		src.Instrument(entryReg)
		toSource := atmnet.NewLink(fmt.Sprintf("srcrev%d", i), accessCPS, cfg.AccessDelay, src)
		toSource.Instrument(entryReg)
		ingressRevPort := entrySw.AddPort(entryEng, toSource, nil)

		// Routes through every switch on the path.
		for k := spec.Entry; k <= spec.Exit; k++ {
			var fwd, bwd *atmnet.Port
			if k < spec.Exit {
				fwd = fwdPorts[k]
			} else {
				fwd = egressPort
			}
			if k > spec.Entry {
				bwd = revPorts[k-1]
			} else {
				bwd = ingressRevPort
			}
			n.Switches[k].Route(vc, fwd, bwd)
		}

		acr := metrics.AcquireSeries(fmt.Sprintf("ACR[%s]", spec.Name), hint)
		if cfg.Trace != nil {
			tr := plan.traceFor(spec.Entry)
			name := spec.Name
			src.OnRateChange = func(now sim.Time, r float64) {
				acr.Add(now, r)
				tr.Emit(now, name, "rate", trace.F("acr", r))
			}
		} else {
			src.OnRateChange = func(now sim.Time, r float64) { acr.Add(now, r) }
		}
		n.ACR = append(n.ACR, acr)
		n.Goodput = append(n.Goodput, metrics.AcquireSeries(fmt.Sprintf("goodput[%s]", spec.Name), hint))
		n.Sources = append(n.Sources, src)
		n.Dests = append(n.Dests, dest)
		n.lastDelivered = append(n.lastDelivered, 0)
		n.sessionShard = append(n.sessionShard, plan.shardOf(spec.Exit))

		if err := src.Start(entryEng); err != nil {
			return nil, fmt.Errorf("scenario: session %d: %w", i, err)
		}
	}

	// Periodic sampler for goodput, queue and fair-share series: one per
	// shard, each sampling only the components its engine owns, so series
	// stay single-writer under the sharded run.
	for s := 0; s < plan.part.Shards; s++ {
		s := s
		plan.engines[s].Every(cfg.SampleEvery, func(en *sim.Engine) { n.sample(s, en.Now()) })
	}
	return n, nil
}

// sample records one point on every sampled series owned by shard s.
func (n *ATMNet) sample(s int, now sim.Time) {
	dt := now.Sub(n.plan.lastSamples[s]).Seconds()
	n.plan.lastSamples[s] = now
	for i, d := range n.Dests {
		if n.sessionShard[i] != s {
			continue
		}
		cur := d.DataCells()
		if dt > 0 {
			n.Goodput[i].Add(now, float64(cur-n.lastDelivered[i])/dt)
		}
		n.lastDelivered[i] = cur
	}
	for k, l := range n.trunks {
		if n.trunkShard[k] != s {
			continue
		}
		n.TrunkQueue[k].Add(now, float64(l.QueueLen()))
		if fn := n.fairShareFns[k]; fn != nil {
			n.FairShare[k].Add(now, fn())
		}
	}
}

// Run executes the scenario for d of simulated time (cumulative across
// calls) and folds the engines' event statistics into the telemetry
// registry. Sharded scenarios advance under the epoch-barrier protocol;
// the caller's goroutine coordinates and owns all merged observability.
func (n *ATMNet) Run(d sim.Duration) {
	n.plan.run(d)
	n.plan.flush()
}

// Shards returns the run's effective shard count (1 when unsharded).
func (n *ATMNet) Shards() int { return n.plan.part.Shards }

// ShardStats returns the epoch-barrier accounting of a sharded run; ok is
// false for single-engine runs.
func (n *ATMNet) ShardStats() (shard.Stats, bool) {
	if n.plan.group == nil {
		return shard.Stats{}, false
	}
	return n.plan.group.Stat(), true
}

// FiredTotal returns the events fired across every shard engine.
func (n *ATMNet) FiredTotal() uint64 {
	var total uint64
	for _, e := range n.plan.engines {
		total += e.Fired()
	}
	return total
}

// trunkRateBPS returns trunk k's configured line rate.
func (n *ATMNet) trunkRateBPS(k int) float64 {
	if n.Config.TrunkRatesBPS != nil && n.Config.TrunkRatesBPS[k] > 0 {
		return n.Config.TrunkRatesBPS[k]
	}
	return n.Config.TrunkRateBPS
}

// TrunkQueueLen returns trunk k's current output-queue length.
func (n *ATMNet) TrunkQueueLen(k int) int { return n.trunks[k].QueueLen() }

// TrunkCapacityCPS returns trunk k's configured line rate in cells/s (the
// build-time rate; transient events change the live rate, not this value).
func (n *ATMNet) TrunkCapacityCPS(k int) float64 { return atm.CPS(n.trunkRateBPS(k)) }

// TrunkUtilization returns trunk k's lifetime utilization: cells sent
// divided by the cells the line could have carried.
func (n *ATMNet) TrunkUtilization(k int) float64 {
	elapsed := n.Engine.Now().Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(n.trunks[k].Sent()) / (atm.CPS(n.trunkRateBPS(k)) * elapsed)
}

// MeanGoodputCPS returns session i's lifetime mean delivered rate in
// cells/s.
func (n *ATMNet) MeanGoodputCPS(i int) float64 {
	elapsed := n.Engine.Now().Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(n.Dests[i].DataCells()) / elapsed
}

// MaxMinOracle returns the max-min fair rates (cells/s) for the scenario's
// sessions over the trunk capacities, ignoring access links (they are
// per-session and never the shared bottleneck in these configurations).
func (n *ATMNet) MaxMinOracle() ([]float64, error) {
	nTrunks := n.Config.Switches - 1
	caps := make([]float64, nTrunks)
	for k := range caps {
		caps[k] = atm.CPS(n.trunkRateBPS(k))
	}
	var sessions [][]int
	for _, s := range n.Config.Sessions {
		var path []int
		for k := s.Entry; k < s.Exit; k++ {
			path = append(path, k)
		}
		sessions = append(sessions, path)
	}
	return metrics.MaxMinSolve(metrics.MaxMinProblem{Capacity: caps, Sessions: sessions})
}
