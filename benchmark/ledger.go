package main

import (
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/strict"
	"repro/internal/topo"
)

// sampleEvery is the kernel hook's mean sampling period: one event in this
// many is timed from its hook call to the next hook call. The gap between
// samples is drawn uniformly from [1, 2·sampleEvery-1] so that a periodic
// event pattern (a slot cycle of a power-of-two length) cannot alias with
// the sampler and time the same kind of event every time.
const sampleEvery = 64

// selfTimeTolerance bounds how far the summed sampled self times may stray
// from the loop time they partition, as a share of that loop time. The
// synthetic-kernel test holds the sampler to it.
const selfTimeTolerance = 0.10

// kernelLedger is an instance's Kernel.OnEvent hook: it counts events by
// source, tracks the queue high-water mark, and times one event in
// sampleEvery. It runs on the instance's event-loop goroutine only.
type kernelLedger struct {
	next       func(sim.EventInfo) // chained hook (the obs run's), may be nil
	events     [sim.NumSources]uint64
	samples    [sim.NumSources]uint64 // closed samples
	selfNs     [sim.NumSources]int64
	pendingMax int

	countdown uint64 // events until the next sample
	rng       uint64 // xorshift state for the sampling gaps; never 0
	open      bool
	openSrc   sim.Source
	openAt    time.Time
}

func newKernelLedger(next func(sim.EventInfo)) *kernelLedger {
	l := &kernelLedger{next: next, rng: 0x9e3779b97f4a7c15}
	l.countdown = l.gap()
	return l
}

// gap draws the next sampling gap, uniform on [1, 2·sampleEvery-1].
func (l *kernelLedger) gap() uint64 {
	l.rng ^= l.rng << 13
	l.rng ^= l.rng >> 7
	l.rng ^= l.rng << 17
	return 1 + l.rng%(2*sampleEvery-1)
}

func (l *kernelLedger) hook(info sim.EventInfo) {
	if l.open {
		l.close(time.Now())
	}
	l.events[info.Source]++
	if info.Pending > l.pendingMax {
		l.pendingMax = info.Pending
	}
	if l.next != nil {
		l.next(info)
	}
	if l.countdown--; l.countdown == 0 {
		l.countdown = l.gap()
		l.open, l.openSrc, l.openAt = true, info.Source, time.Now()
	}
}

// close books the open sample, minus the one clock read its interval
// contains.
func (l *kernelLedger) close(at time.Time) {
	d := int64(at.Sub(l.openAt)) - clockReadNs
	if d < 0 {
		d = 0
	}
	l.selfNs[l.openSrc] += d
	l.samples[l.openSrc]++
	l.open = false
}

// clockReadNs is the host cost of one time.Now call, measured once at start
// up as the fastest of a few batches.
var clockReadNs = func() int64 {
	const batch = 1000
	best := int64(math.MaxInt64)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			_ = time.Now()
		}
		if d := int64(time.Since(t0)) / batch; d < best {
			best = d
		}
	}
	return best
}()

// flush closes the open sample when a Step returns: the sampled event ran
// until then.
func (l *kernelLedger) flush() {
	if l.open {
		l.close(time.Now())
	}
}

// drop abandons the open sample at a shard window barrier, whose wait is
// not the event's self time.
func (l *kernelLedger) drop() { l.open = false }

// selfSeconds estimates the host time spent in events of src: the mean
// sampled interval times the events of that source. With every sample
// closed this is the sampled total scaled by sampleEvery; it stays
// unbiased when samples are dropped at window barriers.
func (l *kernelLedger) selfSeconds(src sim.Source) float64 {
	if l.samples[src] == 0 {
		return 0
	}
	mean := float64(l.selfNs[src]) / float64(l.samples[src])
	return mean * float64(l.events[src]) / 1e9
}

// phyLedger is an instance's phy.Probe: transmissions, judged receptions
// and decode successes, chained to the obs run's probe.
type phyLedger struct {
	next           phy.Probe
	tx, judged, ok uint64
}

func (l *phyLedger) TxStart(f *phy.Frame, now sim.Time) {
	l.tx++
	if l.next != nil {
		l.next.TxStart(f, now)
	}
}

func (l *phyLedger) TxEnd(f *phy.Frame, now sim.Time) {
	if l.next != nil {
		l.next.TxEnd(f, now)
	}
}

func (l *phyLedger) RxOutcome(f *phy.Frame, at phy.NodeID, ok bool, now sim.Time) {
	l.judged++
	if ok {
		l.ok++
	}
	if l.next != nil {
		l.next.RxOutcome(f, at, ok, now)
	}
}

// queueLedger samples MAC queue depth on every change, chained to the obs
// run's sampler.
type queueLedger struct {
	next     func(link, depth int)
	samples  uint64
	depthSum uint64
	depthMax int
}

func (l *queueLedger) sample(link, depth int) {
	l.samples++
	l.depthSum += uint64(depth)
	if depth > l.depthMax {
		l.depthMax = depth
	}
	if l.next != nil {
		l.next(link, depth)
	}
}

// queueSampled is the queue-depth hook the MAC engines expose.
type queueSampled interface {
	EnableQueueSampling(func(link, depth int))
}

// instLedger is the per-layer instrumentation of one engine instance.
type instLedger struct {
	k *kernelLedger
	p phyLedger
	q queueLedger
}

// attach installs the ledger's hooks on inst, chaining the hooks the obs
// run installed when metrics are on.
func attach(inst *core.Instance) *instLedger {
	l := &instLedger{k: newKernelLedger(nil)}
	if inst.Obs != nil {
		l.k.next = inst.Obs.KernelHook()
		l.p.next = inst.Obs
		l.q.next = inst.Obs.QueueSampler()
	}
	inst.Kernel.OnEvent(l.k.hook)
	inst.Medium.SetProbe(&l.p)
	if qs, ok := inst.Engine.(queueSampled); ok {
		qs.EnableQueueSampling(l.q.sample)
	}
	return l
}

// timedScheduler wraps the DOMINO server's strict scheduler and times its
// calls; each engine owns one, so it needs no locking.
type timedScheduler struct {
	inner strict.Scheduler
	calls int64
	ns    int64
}

func (t *timedScheduler) NextSlot(backlog func(link int) int) strict.Slot {
	t0 := time.Now()
	s := t.inner.NextSlot(backlog)
	t.ns += int64(time.Since(t0))
	t.calls++
	return s
}

func (t *timedScheduler) Batch(est []int, maxSlots int) strict.Schedule {
	t0 := time.Now()
	s := t.inner.Batch(est, maxSlots)
	t.ns += int64(time.Since(t0))
	t.calls++
	return s
}

// schedulers collects the timing wrappers handed to every DOMINO engine a
// traced run builds.
type schedulers struct {
	mu   sync.Mutex
	list []*timedScheduler
}

// factory returns a domino.Config.NewScheduler hook that builds the named
// policy (the paper's RAND when name is empty) wrapped in a timer.
func (s *schedulers) factory(name string) func(*topo.ConflictGraph) strict.Scheduler {
	if name == "" {
		name = "RAND"
	}
	return func(g *topo.ConflictGraph) strict.Scheduler {
		inner, err := strict.BuildScheduler(name, g)
		if err != nil {
			panic(err) // the name was validated with the spec
		}
		t := &timedScheduler{inner: inner}
		s.mu.Lock()
		s.list = append(s.list, t)
		s.mu.Unlock()
		return t
	}
}
