package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// rearmFn re-arms a queued event at an absolute time, returning the new
// handle: Event.Reschedule, or the Cancel+At pair it must equal.
type rearmFn func(k *Kernel, h Event, at Time, fn func()) Event

func reschedule(_ *Kernel, h Event, at Time, _ func()) Event { return h.Reschedule(at) }

func cancelAt(k *Kernel, h Event, at Time, fn func()) Event {
	h.Cancel()
	return k.At(at, fn)
}

// opTrace drives one kernel through a deterministic random schedule of
// At/After/Cancel/re-arm operations (derived from seed) and records the
// (at, seq) identity of every event that fires, plus the kernel state at
// every 37 ns boundary. Callbacks themselves schedule, cancel and re-arm,
// so the interleaving exercises mid-run mutation of the queue; roots carry
// distinct sources so re-armed events inherit varying attributions.
func opTrace(k *Kernel, seed int64, ops int, rearm rearmFn) ([]EventInfo, []KernelState) {
	rng := rand.New(rand.NewSource(seed))
	var fired []EventInfo
	k.OnEvent(func(info EventInfo) { fired = append(fired, info) })

	var handles []Event
	var step func()
	remaining := ops
	step = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		switch rng.Intn(5) {
		case 0: // absolute schedule, possibly at the current instant (FIFO tie)
			handles = append(handles, k.At(k.Now()+Time(rng.Intn(5)), step))
		case 1: // relative schedule
			handles = append(handles, k.After(Time(1+rng.Intn(50)), step))
		case 2: // schedule then cancel a random outstanding handle
			handles = append(handles, k.After(Time(1+rng.Intn(50)), step))
			handles[rng.Intn(len(handles))].Cancel()
		case 3: // re-arm a random handle, possibly at the current instant;
			// the old handle stays a target and must act as a stale one
			i, at := rng.Intn(len(handles)), k.Now()+Time(rng.Intn(50))
			if old := handles[i]; old.Scheduled() {
				handles[i] = rearm(k, old, at, step)
				handles = append(handles, old)
			}
		default: // burst of same-instant events to stress seq tie-breaking
			at := k.Now() + Time(rng.Intn(3))
			for i := 0; i < 3; i++ {
				handles = append(handles, k.At(at, step))
			}
		}
	}
	// Seed the run with a few roots so cancellation cannot strand the trace.
	for i := 0; i < 4; i++ {
		handles = append(handles, k.After(Time(i), step).SetSource(Source(i)))
	}
	var states []KernelState
	for t := Time(0); k.Pending() > 0; t += 37 {
		k.RunUntil(t)
		states = append(states, k.CheckpointState())
	}
	return fired, states
}

// equalTraces fails the test at the first divergence between two opTrace
// results.
func equalTraces(t *testing.T, seed int64, what string, got, want []EventInfo, gotS, wantS []KernelState) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("seed %d: %s fired %d events, want %d", seed, what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("seed %d: %s event %d diverged: %+v, want %+v", seed, what, i, got[i], want[i])
		}
	}
	if len(gotS) != len(wantS) {
		t.Fatalf("seed %d: %s took %d state samples, want %d", seed, what, len(gotS), len(wantS))
	}
	for i := range gotS {
		if !reflect.DeepEqual(gotS[i], wantS[i]) {
			t.Fatalf("seed %d: %s state sample %d: %+v, want %+v", seed, what, i, gotS[i], wantS[i])
		}
	}
}

// TestDifferentialRandomOps is the kernel property test: for random
// At/After/Cancel/Reschedule interleavings the pooled monomorphic kernel
// must fire the exact same event sequence — same timestamps, same fired
// counts, same pending depths, same sources — as the retained
// container/heap reference.
func TestDifferentialRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		pooled := New(seed)
		got, gotS := opTrace(pooled, seed, 400, reschedule)

		SetReferenceQueue(true)
		refKernel := New(seed)
		SetReferenceQueue(false)
		want, wantS := opTrace(refKernel, seed, 400, reschedule)

		equalTraces(t, seed, "pooled vs reference", got, want, gotS, wantS)
		if pooled.Now() != refKernel.Now() {
			t.Fatalf("seed %d: final clocks diverged: %v vs %v", seed, pooled.Now(), refKernel.Now())
		}
	}
}

// TestRescheduleEqualsCancelAt pins Event.Reschedule to the Cancel+At pair
// it replaces: across random interleavings the fired sequence, every
// sampled CheckpointState and the event pool end identical.
func TestRescheduleEqualsCancelAt(t *testing.T) {
	rearmed := 0
	for seed := int64(1); seed <= 25; seed++ {
		rk, ck := New(seed), New(seed)
		got, gotS := opTrace(rk, seed, 400, func(k *Kernel, h Event, at Time, fn func()) Event {
			rearmed++
			return h.Reschedule(at)
		})
		want, wantS := opTrace(ck, seed, 400, cancelAt)
		equalTraces(t, seed, "Reschedule vs Cancel+At", got, want, gotS, wantS)
		if rk.poolSize() != ck.poolSize() {
			t.Fatalf("seed %d: pool depth %d, want %d", seed, rk.poolSize(), ck.poolSize())
		}
	}
	if rearmed < 100 {
		t.Fatalf("only %d re-arms exercised", rearmed)
	}
}

// TestSameInstantFIFOProperty checks (at, seq) ordering directly: events
// scheduled at identical instants from random interleavings fire in exact
// schedule order, and distinct instants fire in time order.
func TestSameInstantFIFOProperty(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := New(seed)
		type stamp struct {
			at  Time
			ord int
		}
		var want []stamp
		var got []stamp
		for i := 0; i < 300; i++ {
			at := Time(rng.Intn(20))
			ord := i
			want = append(want, stamp{at, ord})
			k.At(at, func() { got = append(got, stamp{k.Now(), ord}) })
		}
		// Expected order: stable sort by at (schedule order preserved within
		// an instant) — exactly the (at, seq) contract.
		for i := 1; i < len(want); i++ {
			for j := i; j > 0 && want[j].at < want[j-1].at; j-- {
				want[j], want[j-1] = want[j-1], want[j]
			}
		}
		k.Run()
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d, want %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: position %d = %+v, want %+v", seed, i, got[i], want[i])
			}
		}
	}
}
