package runner

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/exp"
	"repro/internal/store"
	"repro/internal/trace"
)

// runFleetStore runs every registered experiment through a fleet with the
// full observability stack (telemetry registries, per-job flight
// recorders) and, when dir is non-empty, the campaign store attached.
func runFleetStore(t *testing.T, workers int, dir string) []Result {
	t.Helper()
	defs := exp.All()
	jobs := make([]Job, len(defs))
	for i, d := range defs {
		jobs[i] = Job{Def: d, Opts: exp.Options{
			Quiet:    true,
			Duration: shortDuration(d.ID),
		}}
		if dir != "" {
			jobs[i].Opts.Trace = trace.New(1 << 10)
		}
	}
	fleet := &Fleet{Workers: workers, Telemetry: true}
	if dir != "" {
		sw, err := store.Create(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fleet.Store = sw
	}
	results, stats := fleet.Run(jobs)
	if stats.Failed != 0 {
		for _, r := range results {
			if r.Err != nil {
				t.Errorf("%s failed: %v", r.Job.Label(), r.Err)
			}
		}
		t.FailNow()
	}
	if fleet.Store != nil {
		if err := fleet.Store.Close(); err != nil {
			t.Fatalf("store close: %v", err)
		}
	}
	return results
}

// TestStoreObservationFree extends the observation-freeness contract to
// the results store: a fleet persisting every run (summaries, counters,
// traces) produces summaries bit-identical to a store-less fleet, and the
// persisted summaries read back bit-identical to the in-memory results.
func TestStoreObservationFree(t *testing.T) {
	defs := exp.All()
	if len(defs) == 0 {
		t.Fatal("registry is empty")
	}
	// The subtest is named after the engine's one calendar, a heap.
	t.Run("heap", func(t *testing.T) {
		off := runFleetStore(t, 4, "")
		dir := t.TempDir()
		on := runFleetStore(t, 4, dir)
		for i := range defs {
			summariesIdentical(t, defs[i].ID+" store on-vs-off", on[i].Res.Summary, off[i].Res.Summary)
		}

		rd, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var persisted []store.RunSummary
		if err := rd.Summaries(store.Query{Sweep: store.AnySweep}, func(s store.RunSummary) error {
			persisted = append(persisted, s)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(persisted) != len(defs) {
			t.Fatalf("store holds %d run summaries, want %d", len(persisted), len(defs))
		}
		for i := range defs {
			if persisted[i].Experiment != defs[i].ID {
				t.Fatalf("store run %d is %q, want %q — run order lost", i, persisted[i].Experiment, defs[i].ID)
			}
			summariesIdentical(t, defs[i].ID+" store read-back", persisted[i].Summary, on[i].Res.Summary)
		}
		// Counters persisted too (telemetry was on), and every run that
		// carried a tracer stored events.
		nCounters := 0
		if err := rd.Counters(store.Query{Sweep: store.AnySweep}, func(c store.RunCounters) error {
			nCounters++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if nCounters != len(defs) {
			t.Fatalf("store holds %d counter snapshots, want %d", nCounters, len(defs))
		}
	})
}

// TestStoreWorkerCountByteIdentical pins the campaign determinism
// contract end to end: the same jobs through a 1-worker fleet and a
// 4-worker fleet leave byte-identical campaign directories.
func TestStoreWorkerCountByteIdentical(t *testing.T) {
	dir1, dir4 := t.TempDir(), t.TempDir()
	runFleetStore(t, 1, dir1)
	runFleetStore(t, 4, dir4)

	read := func(dir string) map[string][]byte {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = b
		}
		return out
	}
	b1, b4 := read(dir1), read(dir4)
	if len(b1) == 0 {
		t.Fatal("1-worker fleet wrote no campaign files")
	}
	if len(b1) != len(b4) {
		t.Fatalf("file counts differ: %d vs %d", len(b1), len(b4))
	}
	for name, b := range b1 {
		if !reflect.DeepEqual(b, b4[name]) {
			t.Fatalf("%s differs between 1-worker and 4-worker campaigns", name)
		}
	}
}
