// Client-side node logic: clients know nothing of the schedule — they send
// when triggered, broadcast per the AP's S1 instructions, and answer polls.

package domino

import (
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topo"
)

type clientNode struct {
	e      *Engine
	id     phy.NodeID
	ap     phy.NodeID
	uplink *topo.Link
	asleep bool

	armed    *armedTx
	lastHint int

	inflight []*mac.Packet
	txStart  sim.Time
	ackEv    sim.Event
	// ackTimeoutFn is ackTimeout, bound once so arming it allocates nothing.
	ackTimeoutFn func()

	tx *txBufs

	// refSpan/depth mirror apNode: the causal span of the client's current
	// time reference and its trigger-cascade depth (zero with spans off).
	refSpan int64
	depth   int
}

// bufs returns the client's reused transmission buffers.
func (c *clientNode) bufs() *txBufs {
	if c.tx == nil {
		c.tx = new(txBufs)
	}
	return c.tx
}

// CarrierChanged implements phy.Listener.
func (c *clientNode) CarrierChanged(bool) {}

// FrameReceived implements phy.Listener.
func (c *clientNode) FrameReceived(f *phy.Frame, ok bool, det *phy.SignatureDetection) {
	e := c.e
	if c.asleep {
		return // radio powered down
	}
	if !ok {
		if f.Kind == phy.Signature {
			if pl, good := f.Payload.(*phy.SignaturePayload); good && containsInt(pl.Sigs, int(c.id)) {
				e.triggerMiss(c.id, pl.SlotHint)
				e.noteSigMiss(c.id, det)
			}
		}
		return
	}
	switch f.Kind {
	case phy.Signature:
		pl := f.Payload.(*phy.SignaturePayload)
		if containsInt(pl.Sigs, int(c.id)) || e.falseTrigger() {
			c.onTrigger(pl)
		}
	case phy.Data, phy.FakeHeader:
		if f.Dst != c.id {
			return
		}
		m := f.Payload.(*meta)
		slotStart := e.k.Now() - f.AirTime()
		// The received downlink slot becomes this client's causal reference.
		c.refSpan, c.depth = m.span, m.depth
		if f.Kind == phy.Data {
			e.calls.clientAck.After(phy.SIFS, clientAckCall{c: c, slot: m.slot, dst: f.Src, pkts: m.pkts, span: m.span})
		}
		// The decoded frame carries the S1 instructions and the slot
		// reference: broadcast at the slot's end.
		c.scheduleBroadcast(m.slot, m.clientSigs, m.rop, m.selfNext, m.nextWait, slotStart)
	case phy.Ack:
		if f.Dst != c.id {
			return
		}
		am := f.Payload.(*ackMeta)
		if c.inflight != nil && len(am.pkts) > 0 && len(c.inflight) > 0 && am.pkts[0] == c.inflight[0] {
			if c.ackEv.Scheduled() {
				c.ackEv.Cancel()
				c.ackEv = sim.Event{}
			}
			bundle := c.inflight
			c.inflight = nil
			e.deliverBundle(bundle)
		}
		// The AP's ACK carries this client's broadcast duty (Fig 8b).
		c.scheduleBroadcast(am.slot, am.clientSigs, am.rop, am.selfNext, am.nextWait, c.txStart)
	}
}

func (c *clientNode) scheduleBroadcast(slotIdx int, targets []phy.NodeID, ropFlag, selfNext bool, nextWait sim.Time, slotStart sim.Time) {
	e := c.e
	if len(targets) == 0 && !selfNext {
		return
	}
	at := slotStart + e.cfg.broadcastOffset()
	delay := at - e.k.Now()
	if delay < 0 {
		delay = 0
	}
	e.calls.clientBcast.After(delay, clientBcastCall{c: c, slot: slotIdx, targets: targets,
		rop: ropFlag, selfNext: selfNext, nextWait: nextWait})
}

// broadcast runs the client's end-of-slot duty for slot a.slot.
func (c *clientNode) broadcast(a clientBcastCall) {
	e := c.e
	if len(a.targets) > 0 && !e.medium.Transmitting(c.id) {
		var bSpan int64
		if e.sp != nil {
			bSpan = e.sp.Next()
		}
		e.trace(TraceEvent{Slot: a.slot + 1, Kind: "bcast", Node: c.id, OK: true,
			Span: bSpan, Parent: c.refSpan})
		b := c.bufs()
		b.frame = phy.Frame{
			Kind: phy.Signature, Dst: phy.Broadcast, Duration: e.cfg.sigFrameDuration(),
			Payload: b.signature(a.targets, a.rop, a.slot+1, bSpan, c.depth),
			ObsSpan: bSpan,
		}
		e.medium.Transmit(c.id, &b.frame)
		c.refSpan = bSpan
	}
	if a.selfNext {
		// The AP told us we transmit in the next slot: the end of this
		// boundary exchange is our reference (we may be deaf to the
		// broadcast carrying our own signature while sending ours).
		e.calls.selfNext.After(e.cfg.sigFrameDuration(), a)
	}
}

// selfNextFired arms the client's transmission for slot a.slot+1 from the
// end of its own boundary exchange.
func (c *clientNode) selfNextFired(a clientBcastCall) {
	if c.armed != nil {
		return
	}
	c.lastHint = a.slot + 1
	c.armTx(a.nextWait)
}

// sendAck transmits the SIFS ACK for a downlink bundle received in a.slot.
func (c *clientNode) sendAck(a clientAckCall) {
	e := c.e
	if e.medium.Transmitting(c.id) {
		return
	}
	e.trace(TraceEvent{Slot: a.slot, Kind: "ack", Node: c.id, OK: true})
	b := c.bufs()
	b.frame = phy.Frame{
		Kind: phy.Ack, Dst: a.dst, Bytes: phy.AckBytes,
		Rate: e.cfg.Rate, Duration: e.cfg.ackAirtime(),
		Payload: &ackMeta{pkts: a.pkts}, ObsSpan: a.span,
	}
	e.medium.Transmit(c.id, &b.frame)
}

// onTrigger: the client's own signature arrived — transmit on the uplink.
func (c *clientNode) onTrigger(pl *phy.SignaturePayload) {
	e := c.e
	c.refSpan, c.depth = e.noteTrigger(c.id, pl)
	delay := sim.Time(0)
	if pl.ROP {
		delay = e.pollGap()
	}
	c.lastHint = pl.SlotHint
	if c.armed != nil {
		if e.k.Now()-c.armed.at < e.cfg.slotDuration()/2 {
			e.cancelArmed(c.armed)
			c.armed = nil
			e.rearms++
			c.armTx(delay)
		}
		return
	}
	c.armTx(delay)
}

func (c *clientNode) armTx(delay sim.Time) {
	c.armed = c.e.newArmed(nil, c, action{}, delay)
}

func (c *clientNode) sendUplink() {
	e := c.e
	if c.uplink == nil || e.medium.Transmitting(c.id) {
		return
	}
	if c.inflight != nil {
		if c.ackEv.Scheduled() {
			c.ackEv.Cancel()
			c.ackEv = sim.Event{}
		}
		prev := c.inflight
		c.inflight = nil
		e.AckMisses++
		e.requeueBundle(c.uplink.ID, prev)
	}
	now := e.k.Now()
	c.txStart = now
	if e.Misalign != nil {
		e.Misalign.ObserveGroup(c.lastHint, now, e.refGroup[c.id])
	}
	bundle := e.popBundle(c.uplink.ID)
	var slotSpan int64
	if e.sp != nil {
		slotSpan = e.sp.Next()
		for _, p := range bundle {
			p.TxSpan = slotSpan
		}
	}
	if bundle != nil {
		e.DataSends += len(bundle)
		e.trace(TraceEvent{Slot: c.lastHint, Kind: "data", Node: c.id, Link: c.uplink, OK: true,
			Span: slotSpan, Parent: c.refSpan})
		dur := e.cfg.dataAirtime()
		b := c.bufs()
		b.meta = meta{pkts: bundle, backlog: e.queues[c.uplink.ID].Len(),
			span: slotSpan, depth: c.depth}
		b.frame = phy.Frame{
			Kind: phy.Data, Dst: c.ap, Bytes: e.cfg.VirtualBytes,
			Rate: e.cfg.Rate, Duration: dur, Payload: &b.meta, ObsSpan: slotSpan,
		}
		e.medium.Transmit(c.id, &b.frame)
		c.inflight = bundle
		timeout := dur + phy.SIFS + e.cfg.ackAirtime() + 2*phy.SlotTime
		c.ackEv = e.k.After(timeout, c.ackTimeoutFn)
	} else {
		e.FakeSends++
		e.trace(TraceEvent{Slot: c.lastHint, Kind: "fake", Node: c.id, Link: c.uplink, OK: true,
			Span: slotSpan, Parent: c.refSpan})
		b := c.bufs()
		b.meta = meta{span: slotSpan, depth: c.depth}
		b.frame = phy.Frame{
			Kind: phy.FakeHeader, Dst: c.ap, Bytes: 0,
			Rate: e.cfg.Rate, Duration: e.cfg.fakeHeaderAirtime(),
			Payload: &b.meta, ObsSpan: slotSpan,
		}
		e.medium.Transmit(c.id, &b.frame)
	}
	c.refSpan = slotSpan
}

func (c *clientNode) ackTimeout() {
	c.ackEv = sim.Event{}
	if c.inflight == nil {
		return
	}
	bundle := c.inflight
	c.inflight = nil
	c.e.AckMisses++
	c.e.requeueBundle(c.uplink.ID, bundle)
}
