package domino

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// armedGoldenRun runs saturated downlinks on the Figure 13a topology for
// 300 ms and hashes every trace event plus the engine counters. Figure 13a's
// APs send in consecutive slots and poll after slots they send in, so
// checkPollSelf defers both the poll and the next slot's arm to the
// boundary; duplicate triggers re-reference armed transmissions hundreds of
// times.
//
// An arm deferred by checkPollSelf never meets another pending armed
// transmission on its own: the AP's next duty after the popped pair waits
// for a trigger or self-arm that comes after the boundary. It can happen
// when a trigger for a later slot arrives early (a node ahead of the chain,
// or a correlator false positive), so the run forces it four times: when an
// AP opens slot s with a poll after s, a send in s+1 and a send in slot
// later queued, a ROP trigger for later arrives 5 µs before the boundary.
// The AP arms later one poll gap out, and checkPollSelf's arm for s+1 then
// fires while that record is still pending.
func armedGoldenRun(t *testing.T) (e *Engine, injected int, sum string) {
	t.Helper()
	net := topo.Figure13a()
	links := net.BuildLinks(true, false)
	g := topo.NewConflictGraph(net, links, phy.DefaultConfig(), phy.Rate12)
	k := sim.New(1)
	medium := phy.NewMedium(k, net.RSS, phy.DefaultConfig())
	hub := &mac.Hub{}
	e = New(k, medium, g, hub, DefaultConfig())
	for _, l := range links {
		s := traffic.NewSaturated(k, e, l, 512, 8)
		hub.Add(s)
		s.Start()
	}
	var h hash.Hash = sha256.New()
	e.Trace = func(ev TraceEvent) {
		link := -1
		if ev.Link != nil {
			link = ev.Link.ID
		}
		fmt.Fprintf(h, "%d %d %s %d %d %v\n", ev.At, ev.Slot, ev.Kind, ev.Node, link, ev.OK)
		ap, isAP := e.aps[ev.Node]
		if !isAP || (ev.Kind != "data" && ev.Kind != "fake") || injected >= 4 || ev.Slot < 40*(injected+1) {
			return
		}
		// sendData traces before it calls checkPollSelf, so the queue still
		// holds the poll and the s+1 send checkPollSelf is about to defer.
		a := ap.actions
		if len(a) < 3 || a[0].kind != aPoll || a[0].slot != ev.Slot ||
			a[1].kind != aSend || a[1].slot != ev.Slot+1 || a[2].kind != aSend {
			return
		}
		injected++
		later := a[2].slot
		k.At(k.Now()+e.cfg.slotDuration()-5*sim.Microsecond, func() {
			ap.onTrigger(&phy.SignaturePayload{Sigs: []int{int(ap.id)}, Start: true, ROP: true, SlotHint: later})
		})
	}
	e.Start()
	k.RunUntil(300 * sim.Millisecond)
	fmt.Fprintf(h, "data=%d fake=%d polls=%d ackmiss=%d late=%d self=%d drops=%d\n",
		e.DataSends, e.FakeSends, e.Polls, e.AckMisses, e.TriggerLate, e.SelfStarts, e.Drops)
	return e, injected, hex.EncodeToString(h.Sum(nil))
}

// TestArmedRecordGolden pins the pooled armed-transmission paths to the
// trace the engine produced when every arm allocated a fresh record and
// closure: a re-referenced record is cancelled and returned to the pool,
// and a record whose AP armed again before it fired still fires its own
// duty. A single armed record per node fails the hash: the overwritten
// record would fire the newer duty.
func TestArmedRecordGolden(t *testing.T) {
	const golden = "96728617d8b731bfdd549fd5268ae5b544d0ba4d325285179bc6cd096b4ada34"
	e, injected, sum := armedGoldenRun(t)
	if injected != 4 {
		t.Fatalf("forced %d early triggers, want 4", injected)
	}
	if sum != golden {
		t.Errorf("trace hash %s, want %s", sum, golden)
	}
	if e.rearms == 0 {
		t.Error("no duplicate trigger re-referenced an armed transmission")
	}
	if e.armOverlaps != injected {
		t.Errorf("%d arms met a pending armed transmission, want %d", e.armOverlaps, injected)
	}
	// Cancelled records come back: the pool never grows past the records
	// pending at once, though hundreds are cancelled.
	if e.armedMade > 2*len(e.aps) {
		t.Errorf("%d armed records allocated for %d re-references", e.armedMade, e.rearms)
	}
	t.Logf("re-references %d, overlapping arms %d, records allocated %d", e.rearms, e.armOverlaps, e.armedMade)
}
