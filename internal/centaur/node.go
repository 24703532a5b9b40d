package centaur

import (
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topo"
)

type state int

const (
	stIdle state = iota
	stBackoff
	stTx
	stWaitAck
)

// node is one radio. APs run the scheduled-downlink procedure (release time,
// DIFS + fixed backoff after a clear channel); clients run plain DCF on their
// uplinks; everyone ACKs what it decodes.
type node struct {
	e  *Engine
	id phy.NodeID

	// Scheduled downlink state (APs).
	epoch      []epochItem
	epochStart sim.Time
	epochIdx   int

	// Uplink DCF state (clients).
	uplinks []*topo.Link
	rr      int
	cw      int
	counter int

	st       state
	pending  *mac.Packet
	pendLink *topo.Link
	pendSpan int64 // causal span the pending transmission rides on
	fixed    bool  // pending transmission uses the fixed scheduled backoff

	fireEv    sim.Event
	fireBase  sim.Time
	busySince sim.Time // when carrier sensing last turned busy
	nav       sim.Time // virtual carrier sense: medium reserved until here
	releaseEv sim.Event
	timeoutEv sim.Event
}

// setNAV reserves the medium until t (802.11 virtual carrier sensing: a
// decoded data frame protects its upcoming ACK).
func (n *node) setNAV(t sim.Time) {
	if t <= n.nav {
		return
	}
	n.nav = t
	n.e.k.At(t, func() { n.tryScheduleFire() })
}

// receiveEpoch installs a new downlink schedule (wire arrival).
func (n *node) receiveEpoch(items []epochItem) {
	n.epoch = items
	n.epochStart = n.e.k.Now()
	n.epochIdx = 0
	n.serveEpoch()
}

// serveEpoch begins contention for the next scheduled item at its release
// time.
func (n *node) serveEpoch() {
	if n.st != stIdle {
		return // an uplink exchange (or retry) is in flight; resume after it
	}
	if n.epochIdx >= len(n.epoch) {
		if len(n.epoch) > 0 {
			n.epoch = nil
			lat := n.e.wireLatency()
			ap := n.id
			n.e.k.After(lat, func() { n.e.epochDone(ap) })
		}
		return
	}
	item := n.epoch[n.epochIdx]
	release := n.epochStart + item.releaseOffset
	wait := release - n.e.k.Now()
	if wait < 0 {
		wait = 0
	}
	n.releaseEv = n.e.k.After(wait, func() {
		n.releaseEv = sim.Event{}
		if n.st != stIdle {
			return
		}
		p := n.e.queues[item.link.ID].Pop()
		if p == nil {
			// The queue drained (the scheduler over-estimated); skip.
			n.epochIdx++
			n.serveEpoch()
			return
		}
		if n.e.life != nil {
			n.e.life.PacketDequeued(p, n.e.k.Now())
		}
		// Scheduled sends ride the epoch's span: the tree shows which epoch
		// put this packet on the air.
		p.TxSpan = item.span
		n.pendSpan = item.span
		n.pending = p
		n.pendLink = item.link
		n.fixed = true
		n.st = stBackoff
		n.counter = n.e.cfg.FixedBackoffSlots
		n.tryScheduleFire()
	})
}

// serveUplink starts DCF contention for the next queued uplink packet.
func (n *node) serveUplink() {
	if n.st != stIdle || n.pending != nil || len(n.uplinks) == 0 {
		return
	}
	for i := 0; i < len(n.uplinks); i++ {
		l := n.uplinks[(n.rr+i)%len(n.uplinks)]
		if p := n.e.queues[l.ID].Pop(); p != nil {
			n.rr = (n.rr + i + 1) % len(n.uplinks)
			if n.e.life != nil {
				n.e.life.PacketDequeued(p, n.e.k.Now())
			}
			// Contended uplinks have no scheduling cause: the packet's own
			// span is the attempt.
			p.TxSpan = p.Span
			n.pendSpan = p.Span
			n.pending = p
			n.pendLink = l
			n.fixed = false
			n.st = stBackoff
			n.counter = n.e.k.Rand().Intn(n.cw + 1)
			n.tryScheduleFire()
			return
		}
	}
}

// tryScheduleFire arms the transmission if the channel is idle (physically
// and per the NAV).
func (n *node) tryScheduleFire() {
	if n.st != stBackoff || n.fireEv.Scheduled() || n.e.medium.Busy(n.id) ||
		n.e.k.Now() < n.nav {
		return
	}
	n.fireBase = n.e.k.Now()
	if n.e.debug != nil {
		n.e.debug(n.id, "arm")
	}
	wait := phy.DIFS + sim.Time(n.counter)*phy.SlotTime
	n.fireEv = n.e.k.After(wait, n.fire)
}

// CarrierChanged implements phy.Listener.
func (n *node) CarrierChanged(busy bool) {
	if busy {
		n.busySince = n.e.k.Now()
	}
	if n.st != stBackoff {
		return
	}
	if busy {
		// A fire due at this very instant is already committed: a station
		// cannot abort inside its RX/TX turnaround. Letting it proceed is
		// what aligns exposed transmissions on a shared idle reference (and
		// what produces genuine collisions when the links do conflict).
		if n.e.debug != nil {
			n.e.debug(n.id, "busy-cancel?")
		}
		if n.fireEv.Scheduled() && n.fireEv.At() > n.e.k.Now() {
			if !n.fixed {
				// Random DCF backoff freezes and resumes; the fixed
				// scheduled backoff restarts whole (that is what keeps
				// exposed APs aligned on a common idle reference).
				elapsed := n.e.k.Now() - n.fireBase - phy.DIFS
				if elapsed > 0 {
					consumed := int(elapsed / phy.SlotTime)
					if consumed > n.counter {
						consumed = n.counter
					}
					n.counter -= consumed
				}
			}
			n.fireEv.Cancel()
			n.fireEv = sim.Event{}
		}
		return
	}
	n.tryScheduleFire()
}

func (n *node) fire() {
	n.fireEv = sim.Event{}
	if n.e.debug != nil {
		n.e.debug(n.id, "fire")
	}
	if n.st != stBackoff || n.pending == nil {
		return
	}
	if n.e.medium.Busy(n.id) && n.busySince != n.e.k.Now() {
		// Went busy earlier and we somehow still fired: defer to the next
		// idle transition.
		return
	}
	p := n.pending
	n.st = stTx
	dur := phy.Airtime(p.Bytes, n.e.cfg.Rate)
	n.e.medium.Transmit(n.id, &phy.Frame{
		Kind: phy.Data, Dst: n.pendLink.Receiver, Bytes: p.Bytes,
		Rate: n.e.cfg.Rate, Duration: dur, Payload: p, ObsSpan: n.pendSpan,
	})
	n.e.k.After(dur, func() {
		if n.st == stTx {
			n.st = stWaitAck
			timeout := phy.SIFS + phy.Airtime(phy.AckBytes, n.e.cfg.Rate) + 2*phy.SlotTime
			n.timeoutEv = n.e.k.After(timeout, n.ackTimeout)
		}
	})
}

// FrameReceived implements phy.Listener.
func (n *node) FrameReceived(f *phy.Frame, ok bool, _ *phy.SignatureDetection) {
	if !ok {
		return
	}
	if f.Dst != n.id {
		// Overheard data: honour the NAV through the coming ACK, so the
		// exchange's owner re-enters contention on equal footing.
		if f.Kind == phy.Data {
			n.setNAV(n.e.k.Now() + phy.SIFS + phy.Airtime(phy.AckBytes, n.e.cfg.Rate))
			if n.fireEv.Scheduled() && n.fireEv.At() > n.e.k.Now() {
				n.fireEv.Cancel()
				n.fireEv = sim.Event{}
			}
		}
		return
	}
	switch f.Kind {
	case phy.Data:
		p := f.Payload.(*mac.Packet)
		span, src := f.ObsSpan, f.Src
		n.e.k.After(phy.SIFS, func() {
			if n.e.medium.Transmitting(n.id) {
				return
			}
			if n.fireEv.Scheduled() {
				n.fireEv.Cancel()
				n.fireEv = sim.Event{}
			}
			dur := phy.Airtime(phy.AckBytes, n.e.cfg.Rate)
			n.e.medium.Transmit(n.id, &phy.Frame{
				Kind: phy.Ack, Dst: src, Bytes: phy.AckBytes,
				Rate: n.e.cfg.Rate, Duration: dur, Payload: p, ObsSpan: span,
			})
			n.e.k.After(dur, func() { n.tryScheduleFire() })
		})
	case phy.Ack:
		if n.st != stWaitAck || n.pending == nil || f.Payload.(*mac.Packet) != n.pending {
			return
		}
		if n.timeoutEv.Scheduled() {
			n.timeoutEv.Cancel()
			n.timeoutEv = sim.Event{}
		}
		p := n.pending
		fixed := n.fixed
		n.pending = nil
		n.st = stIdle
		n.cw = n.e.cfg.CWMin
		n.e.events.Delivered(p, n.e.k.Now())
		if fixed {
			n.epochIdx++
			n.serveEpoch()
		}
		n.serveUplink()
	}
}

func (n *node) ackTimeout() {
	n.timeoutEv = sim.Event{}
	if n.st != stWaitAck || n.pending == nil {
		return
	}
	n.e.AckTimeouts++
	n.pending.Retries++
	if n.pending.Retries > mac.RetryLimit {
		p := n.pending
		fixed := n.fixed
		n.pending = nil
		n.st = stIdle
		n.cw = n.e.cfg.CWMin
		n.e.Drops++
		n.e.events.Dropped(p, n.e.k.Now())
		if fixed {
			n.epochIdx++
			n.serveEpoch()
		}
		n.serveUplink()
		return
	}
	if !n.fixed && n.cw < n.e.cfg.CWMax {
		n.cw = 2*n.cw + 1
		if n.cw > n.e.cfg.CWMax {
			n.cw = n.e.cfg.CWMax
		}
	}
	n.st = stBackoff
	if n.fixed {
		n.counter = n.e.cfg.FixedBackoffSlots
	} else {
		n.counter = n.e.k.Rand().Intn(n.cw + 1)
	}
	n.tryScheduleFire()
}
