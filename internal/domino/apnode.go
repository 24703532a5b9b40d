// AP-side node logic: schedule reception, trigger handling, slot execution,
// polling, broadcasts and the free-running fallback clock.

package domino

import (
	"slices"

	"repro/internal/convert"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/poll"
	"repro/internal/sim"
	"repro/internal/topo"
)

type actKind int

const (
	aSend actKind = iota
	aPoll
)

// action is one scheduled duty of an AP, executed in order as triggers
// arrive.
type action struct {
	slot int
	kind actKind
	link *topo.Link // for aSend
}

// txBufs is the frame, data metadata and signature payload a node reuses for
// each transmission, allocated on first use. Reuse is safe because the medium
// and every listener read a frame and its payload only until the frame's
// endTransmission callbacks return (see phy.Listener), and a DOMINO node
// cannot transmit before then: it transmits from its own timers and
// handlers, and no handler of another node calls into it.
type txBufs struct {
	frame phy.Frame
	meta  meta
	sig   phy.SignaturePayload
}

// signature fills the reused signature payload: the targets' signature IDs
// (every node's signature index is its node ID; the START and ROP
// signatures are implicit in the payload flags), sorted so broadcasts are
// deterministic.
func (b *txBufs) signature(targets []phy.NodeID, rop bool, slotHint int, span int64, depth int) *phy.SignaturePayload {
	sigs := b.sig.Sigs[:0]
	for _, t := range targets {
		sigs = append(sigs, int(t))
	}
	slices.Sort(sigs)
	b.sig = phy.SignaturePayload{Sigs: sigs, Start: true, ROP: rop,
		SlotHint: slotHint, ObsSpan: span, ObsDepth: depth}
	return &b.sig
}

// ----------------------------------------------------------------------------
// Access point

type apNode struct {
	e  *Engine
	id phy.NodeID
	// poller owns this AP's client → subchannel/round layout and the decode
	// of each polling cycle (internal/poll registry; ROP by default).
	poller poll.Poller

	known   int // exclusive upper bound of slots received from the server
	actions []action
	started bool
	ptr     int // schedule position: the next slot index expected
	// lastSlot/lastSlotStart record the AP's most recent slot reference, so
	// self-arming can resume when new schedule arrives for duties that were
	// beyond the previously known slots.
	lastSlot      int
	lastSlotStart sim.Time

	armed *armedTx
	// held lists the slots that this AP's pending armed transmissions and
	// boundary polls will read when they fire (see lowWater).
	held []int

	inflight     []*mac.Packet
	inflightLink *topo.Link
	ackEv        sim.Event

	watchdog sim.Event
	// watchdogFn and ackTimeoutFn are the watchdog's and the ACK timeout's
	// callbacks, bound once per AP so rearming them allocates no closure.
	watchdogFn, ackTimeoutFn func()
	// rssAtAP is the received power of a client's report at this AP.
	rssAtAP func(phy.NodeID) float64

	tx *txBufs

	// refSpan/depth track the causal span of this AP's current time
	// reference (last trigger, own slot, or own broadcast) and its
	// trigger-cascade depth; both stay zero when spans are disabled.
	refSpan int64
	depth   int
}

// bufs returns the AP's reused transmission buffers.
func (ap *apNode) bufs() *txBufs {
	if ap.tx == nil {
		ap.tx = new(txBufs)
	}
	return ap.tx
}

// hold records that a pending timer of this AP will read slot; unhold drops
// one such record when the timer fires or is cancelled.
func (ap *apNode) hold(slot int) { ap.held = append(ap.held, slot) }

func (ap *apNode) unhold(slot int) {
	for i, s := range ap.held {
		if s == slot {
			last := len(ap.held) - 1
			ap.held[i] = ap.held[last]
			ap.held = ap.held[:last]
			return
		}
	}
}

// lowWater is the lowest global slot this AP may still read: findSlotFor
// looks back three slots from ptr, free-running measures from lastSlot, the
// next batch's arrival reads from known, selfTrigger reads the gap before
// the first pending duty, and pending armed transmissions and boundary
// polls read their own slots. Engine.retire keeps every slot at or above
// the minimum over all APs.
func (ap *apNode) lowWater() int {
	w := min(ap.ptr-3, ap.lastSlot, ap.known)
	if len(ap.actions) > 0 {
		w = min(w, ap.actions[0].slot-1)
	}
	for _, s := range ap.held {
		w = min(w, s)
	}
	return w
}

// receiveSchedule integrates newly arrived slots (wired dispatch callback).
func (ap *apNode) receiveSchedule(newKnown int) {
	e := ap.e
	for idx := ap.known; idx < newKnown; idx++ {
		slot := e.slot(idx).rel
		for _, en := range slot.Entries {
			if en.Link.Sender == ap.id {
				ap.actions = append(ap.actions, action{slot: idx, kind: aSend, link: en.Link})
			}
		}
		for _, p := range slot.ROPAfter {
			if p == ap.id {
				ap.actions = append(ap.actions, action{slot: idx, kind: aPoll})
			}
		}
	}
	ap.known = newKnown
	if !ap.started {
		ap.started = true
		ap.bootstrap()
	} else if ap.armed == nil && len(ap.actions) > 0 {
		if ap.ptr == 0 {
			// An AP that has not managed to act yet anchors on the batch
			// arrival itself.
			ap.scheduleSelfArm(0, ap.e.k.Now())
		} else {
			// Duties beyond the previously known schedule could not be
			// self-armed when the AP last acted; re-arm from that reference.
			ap.scheduleSelfArm(ap.lastSlot, ap.lastSlotStart)
		}
	}
	ap.armWatchdog()
}

// bootstrap starts the very first batch: an AP scheduled in slot 0 begins on
// schedule receipt; an AP whose slot-0 link is an uplink instead triggers the
// client with a signature (paper §3.3, batch connection).
func (ap *apNode) bootstrap() {
	if len(ap.actions) > 0 && ap.actions[0].kind == aSend && ap.actions[0].slot == 0 {
		ap.e.trace(TraceEvent{Slot: 0, Kind: "selfstart", Node: ap.id})
		ap.execNext(0, 0)
		return
	}
	if ap.e.known() == 0 {
		return
	}
	// If the front of the schedule is one of our clients' uplinks, kick the
	// client with a signature (paper §3.3); any pending poll action will be
	// triggered by the slot's end-of-slot broadcast.
	for _, en := range ap.e.slot(0).rel.Entries {
		if !en.Link.Downlink && en.Link.AP == ap.id {
			client := en.Link.Sender
			ap.sendSignature(0, []phy.NodeID{client}, false)
			return
		}
	}
	// No slot-0 duty: free-run toward the first pending action.
	ap.scheduleSelfArm(0, ap.e.k.Now())
}

// armWatchdog (re)arms the silence timer: if the trigger chain dies, the AP
// self-starts its next action, the same way it started the first batch.
func (ap *apNode) armWatchdog() {
	if ap.watchdog.Scheduled() {
		ap.watchdog.Cancel()
		ap.watchdog = sim.Event{}
	}
	if len(ap.actions) == 0 && ap.armed == nil {
		return
	}
	d := sim.Time(ap.e.cfg.WatchdogSlots) * ap.e.cfg.slotDuration()
	ap.watchdog = ap.e.k.After(d, ap.watchdogFn)
}

// watchdogExpired self-starts the AP after its trigger chain went silent.
func (ap *apNode) watchdogExpired() {
	ap.watchdog = sim.Event{}
	ap.e.SelfStarts++
	// The chain died: this self-start roots a fresh trigger cascade.
	ap.refSpan, ap.depth = 0, 0
	ap.e.trace(TraceEvent{Slot: -1, Kind: "selfstart", Node: ap.id})
	if ap.armed == nil {
		ap.execNext(0, ap.ptr+1)
	}
	ap.armWatchdog()
}

// execNext pops and executes the next pending action. hint is the slot index
// the caller believes is starting (for instrumentation).
func (ap *apNode) execNext(delay sim.Time, hint int) {
	if len(ap.actions) == 0 {
		return
	}
	act := ap.actions[0]
	ap.actions = ap.actions[1:]
	switch act.kind {
	case aPoll:
		ap.doPoll(act.slot)
		// A poll between slots i and i+1 may be followed immediately by this
		// AP's own transmission in slot i+1, fired by the same trigger.
		if len(ap.actions) > 0 && ap.actions[0].kind == aSend && ap.actions[0].slot == act.slot+1 {
			next := ap.actions[0]
			ap.actions = ap.actions[1:]
			ap.arm(next, ap.e.gapAfter(act.slot))
		}
	case aSend:
		ap.arm(act, delay)
	}
}

// arm schedules a transmission relative to the current time reference.
func (ap *apNode) arm(act action, delay sim.Time) {
	if ap.armed != nil {
		ap.e.armOverlaps++
	}
	ap.hold(act.slot)
	ap.armed = ap.e.newArmed(ap, nil, act, delay)
}

// onTrigger handles detection of this AP's own signature. The S′ sequence
// doubles as a slot counter (SlotHint), so duties are matched to the slot
// the trigger starts: duties whose slot already passed are skipped, and a
// trigger for an already-armed slot merely refreshes the time reference.
func (ap *apNode) onTrigger(pl *phy.SignaturePayload) {
	e := ap.e
	ap.armWatchdog()
	ap.refSpan, ap.depth = e.noteTrigger(ap.id, pl)
	hint := pl.SlotHint
	delay := sim.Time(0)
	if pl.ROP {
		delay = e.pollGap()
	}
	if ap.armed != nil {
		// Re-reference an armed transmission for this very slot ("the
		// transmitter uses the last correctly received trigger", §3.4).
		if ap.armed.act.slot == hint && e.k.Now()-ap.armed.at < e.cfg.slotDuration()/2 {
			act := ap.armed.act
			e.cancelArmed(ap.armed)
			ap.armed = nil
			e.rearms++
			ap.arm(act, delay)
		} else {
			e.TriggerLate++
		}
		return
	}
	// Skip duties whose slot has already passed (their air time is gone);
	// a pending poll for the boundary before this slot still runs.
	for len(ap.actions) > 0 {
		a0 := ap.actions[0]
		if a0.kind == aPoll && a0.slot == hint-1 {
			break
		}
		if a0.slot >= hint {
			break
		}
		ap.actions = ap.actions[1:]
	}
	if len(ap.actions) == 0 {
		return
	}
	a0 := ap.actions[0]
	switch {
	case a0.kind == aPoll && a0.slot == hint-1:
		ap.execNext(0, hint)
	case a0.kind == aSend && a0.slot == hint:
		ap.execNext(delay, hint)
	}
	// Duties for later slots wait for their own reference.
}

// sendData transmits the scheduled link's head-of-queue packet, or a fake
// header when there is nothing to send (or the entry is converter-inserted
// and the queue is empty).
func (ap *apNode) sendData(act action) {
	e := ap.e
	if e.medium.Transmitting(ap.id) {
		return
	}
	// A superseded in-flight exchange (its ACK window overlapping this new
	// slot) counts as missed and retries; it must never be silently
	// clobbered.
	if ap.inflight != nil {
		if ap.ackEv.Scheduled() {
			ap.ackEv.Cancel()
			ap.ackEv = sim.Event{}
		}
		prev, prevLink := ap.inflight, ap.inflightLink
		ap.inflight = nil
		e.AckMisses++
		e.requeueBundle(prevLink.ID, prev)
	}
	slot := e.slot(act.slot).rel
	ap.ptr = max(ap.ptr, act.slot+1)
	ap.lastSlot = act.slot
	ap.lastSlotStart = e.k.Now()
	e.noteProgress(act.slot)
	ropFlag := len(slot.ROPAfter) > 0
	clientSigs := lookupBcast(slot, act.link.Receiver)
	now := e.k.Now()
	if e.Misalign != nil {
		e.Misalign.ObserveGroup(act.slot, now, e.refGroup[ap.id])
	}
	bundle := e.popBundle(act.link.ID)
	var slotSpan int64
	if e.sp != nil {
		slotSpan = e.sp.Next()
		for _, p := range bundle {
			p.TxSpan = slotSpan
		}
	}
	b := ap.bufs()
	b.meta = meta{pkts: bundle, slot: act.slot, clientSigs: clientSigs, rop: ropFlag,
		span: slotSpan, depth: ap.depth,
		selfNext: e.clientSenderInSlot(act.link.Receiver, act.slot+1),
		nextWait: e.gapAfter(act.slot)}
	if bundle != nil {
		e.DataSends += len(bundle)
		e.trace(TraceEvent{Slot: act.slot, Kind: "data", Node: ap.id, Link: act.link, OK: true,
			Span: slotSpan, Parent: ap.refSpan})
		dur := e.cfg.dataAirtime()
		b.frame = phy.Frame{
			Kind: phy.Data, Dst: act.link.Receiver, Bytes: e.cfg.VirtualBytes,
			Rate: e.cfg.Rate, Duration: dur, Payload: &b.meta,
			NAV: e.navUntil(act.slot, now), ObsSpan: slotSpan,
		}
		e.medium.Transmit(ap.id, &b.frame)
		ap.inflight = bundle
		ap.inflightLink = act.link
		timeout := dur + phy.SIFS + e.cfg.ackAirtime() + 2*phy.SlotTime
		ap.ackEv = e.k.After(timeout, ap.ackTimeoutFn)
	} else {
		e.FakeSends++
		e.trace(TraceEvent{Slot: act.slot, Kind: "fake", Node: ap.id, Link: act.link, OK: true,
			Span: slotSpan, Parent: ap.refSpan})
		b.frame = phy.Frame{
			Kind: phy.FakeHeader, Dst: act.link.Receiver, Bytes: 0,
			Rate: e.cfg.Rate, Duration: e.cfg.fakeHeaderAirtime(), Payload: &b.meta,
			ObsSpan: slotSpan,
		}
		e.medium.Transmit(ap.id, &b.frame)
	}
	// The slot the AP just opened becomes its causal reference.
	ap.refSpan = slotSpan
	// The sender always has the slot reference: broadcast its combination at
	// the slot's end regardless of the exchange outcome.
	ap.scheduleBroadcast(slot, act.slot, now)
	ap.checkPollSelf(act.slot, now)
	// The AP's own transmission is a time reference: free-run toward its
	// next duty, however many slots away. A trigger that still arrives
	// simply re-references the armed transmission; in trigger-disconnected
	// parts of the network this local clock is the only pacing (paper §3.3:
	// APs start executing the schedule individually).
	ap.scheduleSelfArm(act.slot, now)
}

// scheduleSelfArm arms the AP's next pending action relative to the known
// slot boundary (fromSlot started at slotStart), using the nominal per-slot
// offsets.
func (ap *apNode) scheduleSelfArm(fromSlot int, slotStart sim.Time) {
	e := ap.e
	if len(ap.actions) == 0 {
		return
	}
	next := ap.actions[0]
	if next.slot >= e.known() || fromSlot >= e.known() {
		return
	}
	at := slotStart + (e.slot(next.slot).offset - e.slot(fromSlot).offset)
	if next.kind == aPoll {
		// The poll runs after its slot's broadcast.
		at += e.cfg.slotDuration()
	}
	// Free-running is a FALLBACK: give the trigger a grace period to arrive
	// first, so trigger references (which heal misalignment) always win when
	// the chain is connected.
	at += e.cfg.slotDuration() / 8
	delay := at - e.k.Now()
	if delay < 0 {
		delay = 0
	}
	e.calls.selfArm.After(delay, armCall{ap: ap, act: next})
}

// selfArmFired runs a free-running self-arm: it executes next unless the AP
// is already armed or a trigger consumed next first.
func (ap *apNode) selfArmFired(next action) {
	if ap.armed != nil || len(ap.actions) == 0 {
		return
	}
	if ap.actions[0] != next {
		return // a trigger already consumed it
	}
	switch next.kind {
	case aPoll:
		ap.execNext(0, next.slot)
	case aSend:
		ap.actions = ap.actions[1:]
		ap.arm(next, 0)
	}
}

// checkPollSelf fires a pending poll for a slot the AP itself participated
// in: the AP knows the slot boundary without any trigger (the converter only
// plants explicit poll triggers for non-participating APs).
func (ap *apNode) checkPollSelf(idx int, slotStart sim.Time) {
	if len(ap.actions) == 0 || ap.actions[0].kind != aPoll || ap.actions[0].slot != idx {
		return
	}
	ap.actions = ap.actions[1:]
	boundary := slotStart + ap.e.cfg.slotDuration()
	wait := boundary - ap.e.k.Now()
	if wait < 0 {
		wait = 0
	}
	ap.hold(idx)
	ap.e.calls.pollSelf.After(wait, armCall{ap: ap, act: action{slot: idx, kind: aPoll}})
	if len(ap.actions) > 0 && ap.actions[0].kind == aSend && ap.actions[0].slot == idx+1 {
		next := ap.actions[0]
		ap.actions = ap.actions[1:]
		gap := ap.e.gapAfter(idx)
		ap.hold(next.slot)
		ap.e.calls.pollArm.After(wait, armCall{ap: ap, act: next, gap: gap})
	}
}

// scheduleBroadcast arms this node's end-of-slot signature broadcast if the
// converter assigned it one.
func (ap *apNode) scheduleBroadcast(slot *convert.RelSlot, idx int, slotStart sim.Time) {
	targets := lookupBcast(slot, ap.id)
	if len(targets) == 0 {
		return
	}
	at := slotStart + ap.e.cfg.broadcastOffset()
	delay := at - ap.e.k.Now()
	if delay < 0 {
		delay = 0
	}
	ropFlag := len(slot.ROPAfter) > 0
	ap.e.calls.bcast.After(delay, sigCall{ap: ap, slotHint: idx + 1, targets: targets, rop: ropFlag})
}

func (ap *apNode) sendSignature(slotHint int, targets []phy.NodeID, ropFlag bool) {
	e := ap.e
	if e.medium.Transmitting(ap.id) {
		return
	}
	var bSpan int64
	if e.sp != nil {
		bSpan = e.sp.Next()
	}
	e.trace(TraceEvent{Slot: slotHint, Kind: "bcast", Node: ap.id, OK: true,
		Span: bSpan, Parent: ap.refSpan})
	b := ap.bufs()
	b.frame = phy.Frame{
		Kind: phy.Signature, Dst: phy.Broadcast, Duration: e.cfg.sigFrameDuration(),
		Payload: b.signature(targets, ropFlag, slotHint, bSpan, ap.depth),
		ObsSpan: bSpan,
	}
	e.medium.Transmit(ap.id, &b.frame)
	// The broadcast closes the slot; subsequent self-referenced duties hang
	// off it.
	ap.refSpan = bSpan
	// Half-duplex makes a broadcasting node deaf to triggers arriving at the
	// same instant, but its own broadcast end IS the slot boundary: if its
	// next duty starts exactly there, self-trigger from that reference.
	e.calls.selfTrigger.After(e.cfg.sigFrameDuration(), sigCall{ap: ap, slotHint: slotHint, rop: ropFlag})
}

// selfTrigger consumes the AP's next action when it belongs to the slot this
// node's own broadcast just started.
func (ap *apNode) selfTrigger(slotHint int, ropFlag bool) {
	if ap.armed != nil || len(ap.actions) == 0 {
		return
	}
	act := ap.actions[0]
	switch {
	case act.kind == aPoll && act.slot == slotHint-1:
		ap.execNext(0, slotHint)
	case act.kind == aSend && act.slot == slotHint:
		ap.actions = ap.actions[1:]
		ap.arm(act, ap.e.gapAfter(slotHint-1))
	}
}

// doPoll executes Rapid OFDM Polling: a poll broadcast, the clients' joint
// control symbol one slot later, decode, and the wired report to the server.
func (ap *apNode) doPoll(slotIdx int) {
	e := ap.e
	if e.medium.Transmitting(ap.id) {
		// The AP's own end-of-slot broadcast may share this instant; start
		// the poll right after it clears.
		ap.hold(slotIdx)
		e.calls.pollRetry.After(2*sim.Microsecond, armCall{ap: ap, act: action{slot: slotIdx, kind: aPoll}})
		return
	}
	ap.doPollNow(slotIdx)
}

func (ap *apNode) doPollNow(slotIdx int) {
	e := ap.e
	e.Polls++
	e.trace(TraceEvent{Slot: slotIdx, Kind: "poll", Node: ap.id, OK: true})
	// The poll is part of the current chain node: airtime and rop_poll
	// records accrue to the AP's reference span rather than a fresh one.
	pollSpan := ap.refSpan
	rounds := sim.Time(1)
	if ap.poller != nil {
		rounds = sim.Time(ap.poller.Rounds())
	}
	// A multi-round cycle holds the channel for rounds consecutive poll
	// exchanges; a single frame of rounds × the poll air time models it.
	b := ap.bufs()
	b.frame = phy.Frame{
		Kind: phy.Poll, Dst: phy.Broadcast, Duration: rounds * e.cfg.pollAirtime(),
		Payload: ap.id, ObsSpan: pollSpan,
	}
	e.medium.Transmit(ap.id, &b.frame)
	ap.lastSlot = slotIdx
	ap.lastSlotStart = e.k.Now() - e.cfg.slotDuration()
	ap.scheduleSelfArm(slotIdx, ap.lastSlotStart)
	// Each round takes one poll air time, the WiFi-slot turnaround and the
	// 16 µs control symbol; the cycle's decode completes after the last.
	decodeAt := rounds * (e.cfg.pollAirtime() + phy.SlotTime + sim.Micros(16))
	e.calls.decode.After(decodeAt, decodeCall{ap: ap, span: pollSpan})
}

// decodePoll completes a polling cycle: the poller decodes the clients'
// reports and the result travels to the server over the wire.
func (ap *apNode) decodePoll(pollSpan int64) {
	e := ap.e
	if ap.poller == nil {
		return
	}
	res := ap.poller.Poll(poll.Context{
		Queue:    e.backlogFn,
		RSSAtAP:  ap.rssAtAP,
		NoiseDBm: e.medium.Config().NoiseDBm,
		Rng:      e.k.Rand(),
		Tracer:   e.Obs,
		Now:      e.k.Now(),
		Span:     pollSpan,
	})
	e.notePollCycle(res)
	lat := e.cfg.WiredLatencyMean +
		sim.Time(e.k.Rand().NormFloat64()*float64(e.cfg.WiredLatencyStd))
	if lat < 0 {
		lat = 0
	}
	e.calls.report.After(lat, res)
}

// ackTimeout applies the paper's missed-ACK policy (§3.5): keep the bundle
// at the head of its queue; the next scheduled slot for this destination
// retransmits it.
func (ap *apNode) ackTimeout() {
	ap.ackEv = sim.Event{}
	if ap.inflight == nil {
		return
	}
	bundle := ap.inflight
	ap.inflight = nil
	ap.e.AckMisses++
	ap.e.requeueBundle(ap.inflightLink.ID, bundle)
}

// CarrierChanged implements phy.Listener: channel activity is a liveness
// signal for the watchdog.
func (ap *apNode) CarrierChanged(busy bool) {
	if busy && ap.watchdog.Scheduled() {
		ap.armWatchdog()
	}
}

// FrameReceived implements phy.Listener.
func (ap *apNode) FrameReceived(f *phy.Frame, ok bool, det *phy.SignatureDetection) {
	e := ap.e
	if !ok {
		if f.Kind == phy.Signature {
			if pl, good := f.Payload.(*phy.SignaturePayload); good && containsInt(pl.Sigs, int(ap.id)) {
				e.triggerMiss(ap.id, pl.SlotHint)
				e.noteSigMiss(ap.id, det)
			}
		}
		return
	}
	switch f.Kind {
	case phy.Signature:
		pl := f.Payload.(*phy.SignaturePayload)
		if containsInt(pl.Sigs, int(ap.id)) || e.falseTrigger() {
			ap.onTrigger(pl)
		}
	case phy.Data, phy.FakeHeader:
		if f.Dst != ap.id {
			return
		}
		ap.armWatchdog()
		// Identify the slot from the schedule position. ptr holds the next
		// expected slot: consecutive appearances of the same link resolve to
		// consecutive slots.
		idx := e.findSlotFor(f.Src, ap.id, ap.ptr)
		if idx < 0 {
			return
		}
		ap.ptr = max(ap.ptr, idx+1)
		e.noteProgress(idx)
		slot := e.slot(idx).rel
		slotStart := e.k.Now() - f.AirTime()
		ap.lastSlot = idx
		ap.lastSlotStart = slotStart
		// The received slot is this AP's new causal reference: the boundary
		// broadcast and any poll it runs hang off the sender's slot span.
		m := f.Payload.(*meta)
		ap.refSpan, ap.depth = m.span, m.depth
		if f.Kind == phy.Data {
			if e.cfg.Piggyback {
				// Relay the piggybacked backlog to the server.
				src := f.Src
				backlog := m.backlog
				lat := e.cfg.WiredLatencyMean +
					sim.Time(e.k.Rand().NormFloat64()*float64(e.cfg.WiredLatencyStd))
				if lat < 0 {
					lat = 0
				}
				e.k.After(lat, func() {
					if cn, okc := e.clients[src]; okc && cn.uplink != nil {
						e.server.upEst[cn.uplink.ID] = backlog
					}
				})
			}
			clientSigs := lookupBcast(slot, f.Src)
			am := &ackMeta{pkts: m.pkts, slot: idx, clientSigs: clientSigs,
				rop: len(slot.ROPAfter) > 0, selfNext: e.clientSenderInSlot(f.Src, idx+1),
				nextWait: e.gapAfter(idx)}
			e.calls.apAck.After(phy.SIFS, apAckCall{ap: ap, slot: idx, dst: f.Src, am: am, span: m.span})
		}
		ap.scheduleBroadcast(slot, idx, slotStart)
		ap.checkPollSelf(idx, slotStart)
	case phy.Ack:
		if f.Dst != ap.id {
			return
		}
		am := f.Payload.(*ackMeta)
		if ap.inflight != nil && len(am.pkts) > 0 && len(ap.inflight) > 0 && am.pkts[0] == ap.inflight[0] {
			if ap.ackEv.Scheduled() {
				ap.ackEv.Cancel()
				ap.ackEv = sim.Event{}
			}
			bundle := ap.inflight
			ap.inflight = nil
			e.deliverBundle(bundle)
		}
	}
}

// sendAck transmits the SIFS ACK for an uplink bundle received in a.slot.
func (ap *apNode) sendAck(a apAckCall) {
	e := ap.e
	if e.medium.Transmitting(ap.id) {
		return
	}
	e.trace(TraceEvent{Slot: a.slot, Kind: "ack", Node: ap.id, OK: true})
	b := ap.bufs()
	b.frame = phy.Frame{
		Kind: phy.Ack, Dst: a.dst, Bytes: phy.AckBytes,
		Rate: e.cfg.Rate, Duration: e.cfg.ackAirtime(), Payload: a.am,
		ObsSpan: a.span,
	}
	e.medium.Transmit(ap.id, &b.frame)
}

// clientBacklog counts a client's uplink backlog including any packet parked
// awaiting retransmission.
func (e *Engine) clientBacklog(c phy.NodeID) int {
	cn, ok := e.clients[c]
	if !ok || cn.uplink == nil {
		return 0
	}
	n := e.queues[cn.uplink.ID].Len()
	if cn.inflight != nil {
		n++
	}
	return n
}

// findSlotFor locates the first slot at or after from whose entries contain
// the sender→receiver link; -1 if unknown.
func (e *Engine) findSlotFor(sender, receiver phy.NodeID, from int) int {
	for idx := from; idx < e.known(); idx++ {
		for _, en := range e.slot(idx).rel.Entries {
			if en.Link.Sender == sender && en.Link.Receiver == receiver {
				return idx
			}
		}
	}
	// The exchange may belong to a slot before our pointer (stale retry);
	// search backwards a little.
	for idx := from - 1; idx >= 0 && idx > from-4; idx-- {
		for _, en := range e.slot(idx).rel.Entries {
			if en.Link.Sender == sender && en.Link.Receiver == receiver {
				return idx
			}
		}
	}
	return -1
}

// lookupBcast returns the broadcast targets assigned to node n at the end of
// the slot, or nil.
func lookupBcast(slot *convert.RelSlot, n phy.NodeID) []phy.NodeID {
	for _, b := range slot.Broadcasts {
		if b.From == n {
			return b.Targets
		}
	}
	return nil
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
