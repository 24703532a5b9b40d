package domino

import (
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/poll"
	"repro/internal/sim"
)

// timers are the engine's fire-and-forget timers. Each is a pooled typed
// call (sim.Calls), so arming one allocates nothing in steady state; the
// argument structs carry what the old closures captured.
type timers struct {
	dispatch *sim.Calls[dispatchCall]
	liveness *sim.Calls[int]

	bcast       *sim.Calls[sigCall]
	selfTrigger *sim.Calls[sigCall]
	selfArm     *sim.Calls[armCall]
	pollSelf    *sim.Calls[armCall]
	pollArm     *sim.Calls[armCall]
	pollRetry   *sim.Calls[armCall]
	decode      *sim.Calls[decodeCall]
	report      *sim.Calls[poll.Result]
	apAck       *sim.Calls[apAckCall]

	clientBcast *sim.Calls[clientBcastCall]
	selfNext    *sim.Calls[clientBcastCall]
	clientAck   *sim.Calls[clientAckCall]
}

// dispatchCall delivers a batch over the wired backbone to one AP.
type dispatchCall struct {
	ap    *apNode
	known int
}

// sigCall is an AP's end-of-slot broadcast, or the self-trigger check after
// it.
type sigCall struct {
	ap       *apNode
	slotHint int
	targets  []phy.NodeID
	rop      bool
}

// armCall is an AP duty timer: a free-running self-arm, or the poll and arm
// a slot the AP took part in schedules for its boundary.
type armCall struct {
	ap  *apNode
	act action
	gap sim.Time
}

// decodeCall completes an AP's polling cycle.
type decodeCall struct {
	ap   *apNode
	span int64
}

// apAckCall is an AP's SIFS ACK for a received uplink bundle.
type apAckCall struct {
	ap   *apNode
	slot int
	dst  phy.NodeID
	am   *ackMeta
	span int64
}

// clientBcastCall is a client's end-of-slot broadcast duty, and the
// self-reference that follows it when the client sends next.
type clientBcastCall struct {
	c        *clientNode
	slot     int
	targets  []phy.NodeID
	rop      bool
	selfNext bool
	nextWait sim.Time
}

// clientAckCall is a client's SIFS ACK for a received downlink bundle.
type clientAckCall struct {
	c    *clientNode
	slot int
	dst  phy.NodeID
	pkts []*mac.Packet
	span int64
}

func newTimers(e *Engine) timers {
	k := e.k
	return timers{
		dispatch: sim.NewCalls(k, func(a dispatchCall) { a.ap.receiveSchedule(a.known) }),
		liveness: sim.NewCalls(k, e.server.livenessCheck),

		bcast:       sim.NewCalls(k, func(a sigCall) { a.ap.sendSignature(a.slotHint, a.targets, a.rop) }),
		selfTrigger: sim.NewCalls(k, func(a sigCall) { a.ap.selfTrigger(a.slotHint, a.rop) }),
		selfArm:     sim.NewCalls(k, func(a armCall) { a.ap.selfArmFired(a.act) }),
		pollSelf: sim.NewCalls(k, func(a armCall) {
			a.ap.unhold(a.act.slot)
			a.ap.doPoll(a.act.slot)
		}),
		pollArm: sim.NewCalls(k, func(a armCall) {
			a.ap.unhold(a.act.slot)
			a.ap.arm(a.act, a.gap)
		}),
		pollRetry: sim.NewCalls(k, func(a armCall) {
			a.ap.unhold(a.act.slot)
			if !e.medium.Transmitting(a.ap.id) {
				a.ap.doPollNow(a.act.slot)
			}
		}),
		decode: sim.NewCalls(k, func(a decodeCall) { a.ap.decodePoll(a.span) }),
		report: sim.NewCalls(k, func(res poll.Result) { e.server.pollResult(res) }),
		apAck:  sim.NewCalls(k, func(a apAckCall) { a.ap.sendAck(a) }),

		clientBcast: sim.NewCalls(k, func(a clientBcastCall) { a.c.broadcast(a) }),
		selfNext:    sim.NewCalls(k, func(a clientBcastCall) { a.c.selfNextFired(a) }),
		clientAck:   sim.NewCalls(k, func(a clientAckCall) { a.c.sendAck(a) }),
	}
}

// armedTx is a transmission waiting for its slot start; a duplicate trigger
// re-references it ("the transmitter uses the last correctly received trigger
// as time reference", §3.4). Records are pooled per engine. A record returns
// to the pool when its event fires, and every site that cancels the event
// returns it explicitly. They are pooled rather than embedded one per node
// because an AP can have two pending at once: the arm checkPollSelf defers
// to the slot boundary does not check ap.armed.
type armedTx struct {
	act action
	ev  sim.Event
	at  sim.Time
	// Exactly one of ap and c is set: the node that armed the record.
	ap *apNode
	c  *clientNode
	// fire is run bound once, when the record is first made.
	fire func()
}

// newArmed returns a pooled record armed to fire after delay.
func (e *Engine) newArmed(ap *apNode, c *clientNode, act action, delay sim.Time) *armedTx {
	var t *armedTx
	if n := len(e.armedFree) - 1; n >= 0 {
		t = e.armedFree[n]
		e.armedFree[n] = nil
		e.armedFree = e.armedFree[:n]
	} else {
		t = &armedTx{}
		t.fire = t.run
		e.armedMade++
	}
	t.act, t.at, t.ap, t.c = act, e.k.Now(), ap, c
	t.ev = e.k.After(delay, t.fire)
	return t
}

// releaseArmed returns a fired or cancelled record to the pool.
func (e *Engine) releaseArmed(t *armedTx) {
	*t = armedTx{fire: t.fire}
	e.armedFree = append(e.armedFree, t)
}

// cancelArmed cancels a pending record's event and returns it to the pool.
func (e *Engine) cancelArmed(t *armedTx) {
	t.ev.Cancel()
	if t.ap != nil {
		t.ap.unhold(t.act.slot)
	}
	e.releaseArmed(t)
}

// run sends the armed transmission. The record goes back to the pool first.
func (t *armedTx) run() {
	act, ap, c := t.act, t.ap, t.c
	if ap != nil {
		ap.unhold(act.slot)
		ap.e.releaseArmed(t)
		ap.armed = nil
		ap.sendData(act)
		return
	}
	c.e.releaseArmed(t)
	c.armed = nil
	c.sendUplink()
}
