package domino

import (
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// TestDominoSteadyStateAllocs bounds heap allocations per kernel event over
// one saturated Fig 7 second, after a second of warm-up. The slot cycle
// itself allocates nothing: timers are pooled calls, armed records are
// pooled, and every node reuses its frame, metadata and signature payload.
// What remains is per packet (traffic packets, bundles, ackMeta) and per
// batch (strict slots, converted plans, poll results): 0.67 allocs/event
// when this bound was set, against 3.10 when every slot step allocated. The
// bound adds 0.15 of headroom.
func TestDominoSteadyStateAllocs(t *testing.T) {
	const bound = 0.82
	r := fullRig(t, topo.Figure7(), true, true, 1, nil)
	r.k.RunUntil(sim.Second)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fired := r.k.Fired()
	r.k.RunUntil(2 * sim.Second)
	runtime.ReadMemStats(&after)
	events := r.k.Fired() - fired
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
	t.Logf("%.3f allocs/event over %d events", perEvent, events)
	if perEvent > bound {
		t.Errorf("steady-state Fig 7 loop allocates %.3f times per event, want ≤ %.2f", perEvent, bound)
	}
}

// TestDominoLiveHeapFlat checks that the engine's memory is bounded by the
// execution front, not by simulated time: retired slots leave the schedule
// window, so the live heap after 40 simulated seconds of saturated Fig 7 is
// within 1 MiB of the heap after 10. Keeping every converted slot grew it
// from 7.9 to 31.0 MiB.
func TestDominoLiveHeapFlat(t *testing.T) {
	r := fullRig(t, topo.Figure7(), true, true, 1, nil)
	heapAt := func(d sim.Time) uint64 {
		r.k.RunUntil(d)
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	h10 := heapAt(10 * sim.Second)
	h40 := heapAt(40 * sim.Second)
	const mib = 1 << 20
	t.Logf("live heap %.2f MiB at 10 s, %.2f MiB at 40 s, window %d slots from %d",
		float64(h10)/mib, float64(h40)/mib, len(r.engine.sched), r.engine.base)
	if h40 > h10+mib {
		t.Errorf("live heap grew from %.2f MiB at 10 s to %.2f MiB at 40 s, want within 1 MiB",
			float64(h10)/mib, float64(h40)/mib)
	}
	// A read below the window is an engine bug and must not pass silently.
	defer func() {
		if recover() == nil {
			t.Errorf("reading retired slot %d did not panic", r.engine.base-1)
		}
	}()
	r.engine.slot(r.engine.base - 1)
}
