// Package repro's top-level benchmarks regenerate every table and figure of
// the paper: one Benchmark per experiment (see DESIGN.md §3 for the index).
// Each iteration executes the experiment end-to-end at a reduced simulated
// duration and reports its headline summary metrics alongside the usual
// time/op, so `go test -bench=. -benchmem` prints the whole reproduction.
package repro

import (
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/runner"
)

// The reduced per-experiment durations live in runner.QuickDuration — one
// profile shared by these benchmarks, the golden baselines, and
// phantom-suite -quick, so "what the benchmarks measure" and "what the
// regression net pins" are the same runs by construction.

// reported selects which summary metrics each experiment surfaces in the
// benchmark output (all metrics remain available via the CLIs).
var reported = map[string][]string{
	"E01": {"jain_tail", "util_trunk0", "peak_queue_cells", "conv_ms_acr0"},
	"E02": {"macr_before_burst", "macr_during_burst", "peak_queue_cells"},
	"E03": {"acr_mid_s0", "theory_rate_k5", "jain_tail"},
	"E04": {"jain_tail", "util_trunk0"},
	"E05": {"norm_jain", "util_trunk0"},
	"E06": {"util_u1", "util_u5", "util_u10"},
	"E07": {"jain_tail", "util_trunk0", "peak_queue_cells"},
	"E08": {"worst_relerr"},
	"E09": {"jain_droptail", "jain_selective_discard", "util_selective_discard"},
	"E10": {"long_ratio_droptail", "long_ratio_selective_discard"},
	"E11": {"drops_predicate", "drops_misclassified", "drops_tail"},
	"E12": {"jain_quench", "jain_ecn", "drops_ecn"},
	"E13": {"jain_red", "jain_selective_red"},
	"E14": {"jain_tail", "mean_queue_cells", "peak_queue_cells"},
	"E15": {"jain_tail", "peak_queue_cells"},
	"E16": {"capc_conv_ms", "phantom_conv_ms", "capc_peak_queue", "phantom_peak_queue"},
	"E17": {"jain_Phantom", "jain_EPRCA", "jain_APRC", "jain_CAPC", "meanq_Phantom", "meanq_EPRCA"},
	"E18": {"normjain_Phantom", "normjain_ExactMaxMin", "util_Phantom", "util_ExactMaxMin"},
	"E19": {"minmax_droptail", "minmax_selective_discard"},
	"E20": {"jain_atm_cloud", "jain_ip_droptail", "edge_acr_jain"},
	"E21": {"norm_jain", "ratio_allhops", "ratio_edge0"},
	"E22": {"util_k1", "util_k8", "util_k32", "jain_k32"},
	"A01": {"wobble_adaptive", "wobble_fixed"},
	"A02": {"util_1ms", "peakq_1ms"},
	"A03": {"util_inc0.0625_dec0.25"},
	"A04": {"worst_relerr"},
	"A05": {"jain_norm", "jain_raw", "swing_norm", "swing_raw"},
}

// benchExperiment is the shared driver.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	def, ok := exp.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	d := runner.QuickDuration(id)
	b.ReportAllocs()
	var last *exp.Result
	for i := 0; i < b.N; i++ {
		res, err := def.Run(exp.Options{Duration: d, Quiet: true})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, key := range reported[id] {
		if v, ok := last.Summary[key]; ok {
			b.ReportMetric(v, key)
		}
	}
}

// --- Section 2–3: the Phantom ATM figures ---

// BenchmarkFig03TwoGreedySessions regenerates Fig. 3: queue, MACR and
// allowed-rate trajectories for two greedy sessions on one 150 Mb/s link.
func BenchmarkFig03TwoGreedySessions(b *testing.B) { benchExperiment(b, "E01") }

// BenchmarkFig04OnOffSessions regenerates Fig. 4: MACR tracking on/off load.
func BenchmarkFig04OnOffSessions(b *testing.B) { benchExperiment(b, "E02") }

// BenchmarkFig05StaggeredJoin regenerates the staggered join/leave figure.
func BenchmarkFig05StaggeredJoin(b *testing.B) { benchExperiment(b, "E03") }

// BenchmarkFig06MixedRTT regenerates the WAN mixed-RTT fairness figure.
func BenchmarkFig06MixedRTT(b *testing.B) { benchExperiment(b, "E04") }

// BenchmarkFig07ParkingLot regenerates the multi-bottleneck max-min figure.
func BenchmarkFig07ParkingLot(b *testing.B) { benchExperiment(b, "E05") }

// BenchmarkFig09UtilizationFactor regenerates the utilization-factor sweep.
func BenchmarkFig09UtilizationFactor(b *testing.B) { benchExperiment(b, "E06") }

// BenchmarkFig11EFCIMode regenerates the binary (CI bit) Phantom figure.
func BenchmarkFig11EFCIMode(b *testing.B) { benchExperiment(b, "E07") }

// BenchmarkTable1Equilibrium regenerates the equilibrium-law table.
func BenchmarkTable1Equilibrium(b *testing.B) { benchExperiment(b, "E08") }

// --- Section 4: the TCP router mechanisms ---

// BenchmarkFig14TCPDropTailVsSelectiveDiscard regenerates Fig. 14.
func BenchmarkFig14TCPDropTailVsSelectiveDiscard(b *testing.B) { benchExperiment(b, "E09") }

// BenchmarkFig17TCPBeatDown regenerates Fig. 17 (multi-router beat-down).
func BenchmarkFig17TCPBeatDown(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkFig18SelectiveDiscard regenerates the Fig. 18 conformance run.
func BenchmarkFig18SelectiveDiscard(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkSec4SourceQuenchAndEFCI regenerates the §4 lossless variants.
func BenchmarkSec4SourceQuenchAndEFCI(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkSec4SelectiveRED regenerates the Selective RED comparison.
func BenchmarkSec4SelectiveRED(b *testing.B) { benchExperiment(b, "E13") }

// --- Section 5: the ATM-Forum baselines ---

// BenchmarkFig19EPRCA regenerates the EPRCA figures.
func BenchmarkFig19EPRCA(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkFig21APRC regenerates the APRC figures.
func BenchmarkFig21APRC(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkFig22CAPC regenerates the CAPC-vs-Phantom comparison.
func BenchmarkFig22CAPC(b *testing.B) { benchExperiment(b, "E16") }

// BenchmarkTable2AlgorithmComparison regenerates the head-to-head table.
func BenchmarkTable2AlgorithmComparison(b *testing.B) { benchExperiment(b, "E17") }

// --- Extensions beyond the paper's figures ---

// BenchmarkExtConstantSpacePrice compares Phantom against the
// unbounded-space exact max-min allocator (the paper's §1 taxonomy).
func BenchmarkExtConstantSpacePrice(b *testing.B) { benchExperiment(b, "E18") }

// BenchmarkExtVegasImbalance reproduces the §4 Vegas non-balancing claim.
func BenchmarkExtVegasImbalance(b *testing.B) { benchExperiment(b, "E19") }

// BenchmarkExtTCPOverATM runs the §4.2 TCP–ATM interconnection comparison.
func BenchmarkExtTCPOverATM(b *testing.B) { benchExperiment(b, "E20") }

// BenchmarkExtGenericFairness runs the heterogeneous-capacity GFC check.
func BenchmarkExtGenericFairness(b *testing.B) { benchExperiment(b, "E21") }

// BenchmarkExtScaling runs the k-session scaling study.
func BenchmarkExtScaling(b *testing.B) { benchExperiment(b, "E22") }

// --- Ablations of the reconstruction choices (DESIGN.md §5) ---

// BenchmarkAblationAdaptiveGain ablates the mean-deviation gain modulation.
func BenchmarkAblationAdaptiveGain(b *testing.B) { benchExperiment(b, "A01") }

// BenchmarkAblationInterval sweeps the measurement interval Δt.
func BenchmarkAblationInterval(b *testing.B) { benchExperiment(b, "A02") }

// BenchmarkAblationGainAsymmetry sweeps the α_inc/α_dec asymmetry.
func BenchmarkAblationGainAsymmetry(b *testing.B) { benchExperiment(b, "A03") }

// BenchmarkModelVsSimulation checks the fluid recursion against the
// event-driven simulator (A04).
func BenchmarkModelVsSimulation(b *testing.B) { benchExperiment(b, "A04") }

// BenchmarkAblationGainNormalization shows the k=32 limit cycle without the
// loop-gain cap (A05).
func BenchmarkAblationGainNormalization(b *testing.B) { benchExperiment(b, "A05") }

// --- The whole suite as a fleet ---

// eSeriesJobs builds one quick-duration job per E-series experiment.
func eSeriesJobs(b *testing.B) []runner.Job {
	b.Helper()
	var jobs []runner.Job
	exp.Walk(func(d exp.Definition) bool {
		if strings.HasPrefix(d.ID, "E") {
			jobs = append(jobs, runner.Job{Def: d, Opts: exp.Options{
				Quiet: true, Duration: runner.QuickDuration(d.ID)}})
		}
		return true
	})
	if len(jobs) == 0 {
		b.Fatal("no E-series experiments registered")
	}
	return jobs
}

// benchSuite runs the full E-series through the fleet at the given worker
// count and reports the work-time/wall-time ratio and the
// simulated-seconds-per-wall-second throughput. The true wall-clock speedup
// is the ratio of the two benchmarks' time/op — on a multi-core machine the
// j=4 case finishes the same jobs in a fraction of the sequential wall time,
// while on a single core both take the same time (the work/wall metric then
// merely reflects time-slicing, not a win).
func benchSuite(b *testing.B, workers int) {
	jobs := eSeriesJobs(b)
	fleet := &runner.Fleet{Workers: workers}
	b.ReportAllocs()
	var last runner.Stats
	for i := 0; i < b.N; i++ {
		results, stats := fleet.Run(jobs)
		for _, r := range results {
			if r.Err != nil {
				b.Fatalf("%s: %v", r.Job.Label(), r.Err)
			}
		}
		last = stats
	}
	b.ReportMetric(last.Speedup(), "speedup")
	b.ReportMetric(last.SimPerWallSecond(), "sim_s/wall_s")
}

// BenchmarkSuiteSequential is the baseline: the whole E-series on one
// worker, i.e. what the pre-fleet harness did.
func BenchmarkSuiteSequential(b *testing.B) { benchSuite(b, 1) }

// BenchmarkSuiteParallel4 is the fleet at -j 4. Compare its time/op against
// BenchmarkSuiteSequential for the wall-clock speedup on your hardware.
func BenchmarkSuiteParallel4(b *testing.B) { benchSuite(b, 4) }
