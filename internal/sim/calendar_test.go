package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// traceOp is one step of a randomized engine workload: schedule an event at
// a relative delay, maybe cancel a previously scheduled one, maybe run the
// engine forward to a deadline.
type traceOp struct {
	kind   int // 0 = schedule, 1 = cancel, 2 = run-until
	delay  Duration
	target int // index into the ref table for cancels
}

// genTrace builds a deterministic random workload from seed. Delays are
// drawn from mixed magnitudes (0 ns up to ~17 min) so the calendar holds
// events at many horizons at once, and cancels target both live and
// already-fired refs.
func genTrace(seed int64, n int) []traceOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]traceOp, n)
	for i := range ops {
		switch r := rng.Intn(10); {
		case r < 6:
			// Magnitude-stratified delay: pick a bit width, then a value.
			width := uint(rng.Intn(40))
			ops[i] = traceOp{kind: 0, delay: Duration(rng.Int63n(1 << width))}
		case r < 8:
			ops[i] = traceOp{kind: 1, target: rng.Intn(64)}
		default:
			width := uint(rng.Intn(34))
			ops[i] = traceOp{kind: 2, delay: Duration(rng.Int63n(1 << width))}
		}
	}
	return ops
}

// fireRec records one fired event for trace comparison.
type fireRec struct {
	at Time
	id int
}

// followsUp reports whether the event with this id schedules a same-instant
// follow-up when it fires, so traces also exercise scheduling from inside
// the run loop.
func followsUp(id int) bool { return id%3 == 0 }

// applyTrace replays ops on a fresh engine and returns the full firing
// trace. A follow-up records the negated id of the event that spawned it.
func applyTrace(ops []traceOp) []fireRec {
	e := NewEngine()
	var fired []fireRec
	var refs []EventRef
	id := 0
	handler := func(myID int) Handler {
		return func(en *Engine) {
			fired = append(fired, fireRec{en.Now(), myID})
			if followsUp(myID) {
				en.After(0, func(en *Engine) {
					fired = append(fired, fireRec{en.Now(), -myID})
				})
			}
		}
	}
	for _, op := range ops {
		switch op.kind {
		case 0:
			refs = append(refs, e.After(op.delay, handler(id)))
			id++
		case 1:
			if len(refs) > 0 {
				refs[op.target%len(refs)].Cancel()
			}
		case 2:
			e.RunUntil(e.Now().Add(op.delay))
		}
	}
	e.Run()
	return fired
}

// refEvent is a pending event in the reference model.
type refEvent struct {
	at       Time
	seq      uint64
	id       int
	followUp bool
	canceled bool
}

// referenceTrace is the oracle for applyTrace: the same ops against a plain
// list of pending events, fired by repeatedly taking the least (at, seq)
// entry with a linear scan. It shares no code with the engine's calendar.
func referenceTrace(ops []traceOp) []fireRec {
	var (
		now     Time
		seq     uint64
		pending []*refEvent
		refs    []*refEvent
		fired   []fireRec
	)
	add := func(ev *refEvent) {
		ev.seq = seq
		seq++
		pending = append(pending, ev)
	}
	runTo := func(deadline Time) {
		for {
			best := -1
			for i, ev := range pending {
				if ev.at <= deadline && (best < 0 || ev.at < pending[best].at ||
					ev.at == pending[best].at && ev.seq < pending[best].seq) {
					best = i
				}
			}
			if best < 0 {
				return
			}
			ev := pending[best]
			pending = append(pending[:best], pending[best+1:]...)
			if ev.canceled {
				continue
			}
			now = ev.at
			if ev.followUp {
				fired = append(fired, fireRec{now, -ev.id})
				continue
			}
			fired = append(fired, fireRec{now, ev.id})
			if followsUp(ev.id) {
				add(&refEvent{at: now, id: ev.id, followUp: true})
			}
		}
	}
	for _, op := range ops {
		switch op.kind {
		case 0:
			ev := &refEvent{at: now.Add(op.delay), id: len(refs)}
			refs = append(refs, ev)
			add(ev)
		case 1:
			// Cancelling an event that already fired is a no-op: it is no
			// longer pending, so the flag is never read.
			if len(refs) > 0 {
				refs[op.target%len(refs)].canceled = true
			}
		case 2:
			deadline := now.Add(op.delay)
			runTo(deadline)
			now = deadline
		}
	}
	runTo(maxTime)
	return fired
}

// TestSchedulerCrossCheck is the calendar's ordering oracle: for randomized
// schedule/cancel/run-until traces, the engine must fire exactly the
// sequence the reference model does. Any divergence breaks bit-identical
// runs and fails here before it can corrupt an experiment.
func TestSchedulerCrossCheck(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ops := genTrace(seed, 400)
			got, want := applyTrace(ops), referenceTrace(ops)
			if len(got) != len(want) {
				t.Fatalf("engine fired %d events, reference fired %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("traces diverge at event %d: engine %+v, reference %+v",
						i, got[i], want[i])
				}
			}
		})
	}
}

// TestHugeDelays files events near the int64 limit next to a near one: they
// must fire in order without overflow.
func TestHugeDelays(t *testing.T) {
	onHeap(t, func(t *testing.T) {
		e := NewEngine()
		var got []Time
		far := Time(1) << 62
		e.At(far, func(en *Engine) { got = append(got, en.Now()) })
		e.At(far+1, func(en *Engine) { got = append(got, en.Now()) })
		e.At(3, func(en *Engine) { got = append(got, en.Now()) })
		e.Run()
		if len(got) != 3 || got[0] != 3 || got[1] != far || got[2] != far+1 {
			t.Fatalf("got %v, want [3 %d %d]", got, far, far+1)
		}
	})
}

// benchWorkload drives n events through an engine: a self-rescheduling
// chain per source, mimicking the port-transmit pattern that dominates real
// experiments. Returns the engine so callers can assert on Fired.
func benchWorkload(sources, events int) *Engine {
	e := NewEngine()
	perSource := events / sources
	for s := 0; s < sources; s++ {
		gap := Duration(700 + 13*s)
		left := perSource
		var tick Handler
		tick = func(en *Engine) {
			left--
			if left > 0 {
				en.After(gap, tick)
			}
		}
		e.After(gap, tick)
	}
	e.Run()
	return e
}

// BenchmarkCalendar measures the engine hot path (schedule + fire) on the
// port-transmit pattern.
func BenchmarkCalendar(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchWorkload(8, 1000)
	}
}

// BenchmarkCalendarMixedHorizon spreads delays from nanoseconds to seconds
// so the calendar holds many horizons at once.
func BenchmarkCalendarMixedHorizon(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(7))
	delays := make([]Duration, 1024)
	for i := range delays {
		delays[i] = Duration(rng.Int63n(1 << uint(10+3*(i%10))))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j, d := range delays {
			j := j
			e.After(d, func(en *Engine) {
				if j%2 == 0 {
					en.After(delays[j%len(delays)], func(*Engine) {})
				}
			})
		}
		e.Run()
	}
}
