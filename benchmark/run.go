package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/spec"
)

// built is one run ready to step: a single engine instance, or a sharded
// run whose per-domain instances step together in lookahead windows.
type built struct {
	inst *core.Instance
	st   *shard.Steppable
	dur  sim.Time
}

// setupRun turns a spec into a ready-to-step run through the public calls
// the CLIs use: core.BuildScenario, then core.NewInstance or shard.New.
// tune, when non-nil, adjusts the scenario before the engines are built.
func setupRun(sp spec.Spec, tune func(*core.Scenario)) (*built, error) {
	sc, err := core.BuildScenario(sp)
	if err != nil {
		return nil, err
	}
	if tune != nil {
		tune(&sc)
	}
	return newBuilt(sc, sp)
}

// newBuilt builds the engines for a resolved scenario: shard.New when the
// spec asks for shard workers, core.NewInstance otherwise.
func newBuilt(sc core.Scenario, sp spec.Spec) (b *built, err error) {
	// Engine constructors panic on some invalid inputs (a domain larger
	// than the signature space); report that as this run's failure.
	defer func() {
		if r := recover(); r != nil {
			b, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	b = &built{dur: sp.Duration.Time()}
	if w := sp.ShardWorkers(); w > 0 {
		b.st, err = shard.New(sc, shard.Options{Workers: w})
	} else {
		b.inst, err = core.NewInstance(sc)
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// instances returns the run's engine instances in domain order.
func (b *built) instances() []*core.Instance {
	if b.st != nil {
		return b.st.Instances()
	}
	return []*core.Instance{b.inst}
}

// events sums the kernel events fired across the run's instances.
func (b *built) events() uint64 {
	var n uint64
	for _, inst := range b.instances() {
		n += inst.Kernel.Fired()
	}
	return n
}

// step drives the run to its deadline. window, when non-nil, runs after
// every sharded StepWindow (or after the single-engine Step) with that
// step's host duration.
func (b *built) step(window func(time.Duration)) {
	if b.st == nil {
		t0 := time.Now()
		b.inst.Step(b.dur)
		if window != nil {
			window(time.Since(t0))
		}
		return
	}
	for {
		t0 := time.Now()
		done := b.st.StepWindow()
		if window != nil {
			window(time.Since(t0))
		}
		if done {
			return
		}
	}
}

// outcome is a finished run's simulated result.
type outcome struct {
	res    core.Result
	rep    *shard.Report // nil for single-engine runs
	events uint64
	fp     uint64
}

// finish closes the run (merging shards) and fingerprints its result.
func (b *built) finish() (outcome, error) {
	o := outcome{events: b.events()}
	if b.st != nil {
		var err error
		o.res, o.rep, err = b.st.Finish()
		if err != nil {
			return o, err
		}
	} else {
		o.res = b.inst.Finish()
	}
	o.fp = fingerprint(linkStats(o.res.Collector), o.events)
	return o, nil
}

// check is the output sanity test every run must pass on top of the
// repeat-fingerprint comparison: the run fired events and delivered data.
func (o outcome) check() error {
	if o.events == 0 {
		return fmt.Errorf("no kernel events fired")
	}
	if !(o.res.DataMbps > 0) {
		return fmt.Errorf("no data goodput (%v Mbps)", o.res.DataMbps)
	}
	return nil
}

// timing is one run's host-side measurements, taken from outside the
// program.
type timing struct {
	setup, loop, finish time.Duration
	simS                float64 // simulated seconds advanced
	mallocs, bytes      uint64  // heap allocations and bytes during the loop
	heapMB              float64 // live heap after setup, after a forced GC
	gc                  gcStats // runtime GC figures over the loop
}

// timedRun sets up, steps and finishes one job with nothing attached. The
// forced GC and the MemStats reads fall outside every timed interval.
func timedRun(j job) (timing, outcome, error) {
	var t timing
	t0 := time.Now()
	b, err := setupRun(j.spec, nil)
	t.setup = time.Since(t0)
	if err != nil {
		return t, outcome{}, fmt.Errorf("%s: setup: %w", j.label, err)
	}
	t.heapMB = liveHeapMB()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := readGC()
	t1 := time.Now()
	b.step(nil)
	t.loop = time.Since(t1)
	t.gc = readGC().sub(gc0)
	runtime.ReadMemStats(&m1)
	t.mallocs = m1.Mallocs - m0.Mallocs
	t.bytes = m1.TotalAlloc - m0.TotalAlloc
	t.simS = b.dur.Seconds()
	t2 := time.Now()
	o, err := b.finish()
	t.finish = time.Since(t2)
	if err != nil {
		return t, o, fmt.Errorf("%s: finish: %w", j.label, err)
	}
	return t, o, nil
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// gcStats are the runtime/metrics GC figures: cycles, and the CPU seconds
// the runtime attributes to GC and to all non-idle work.
type gcStats struct {
	cycles      uint64
	gcCPU, busy float64
}

var gcSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

// readGC reads the current totals. The runtime refreshes its CPU classes
// at each GC, so a delta over an allocation-heavy loop is exact to within
// one cycle.
func readGC() gcStats {
	s := append([]metrics.Sample(nil), gcSamples...)
	metrics.Read(s)
	return gcStats{
		cycles: s[0].Value.Uint64(),
		gcCPU:  s[1].Value.Float64(),
		busy:   s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

func (g gcStats) sub(o gcStats) gcStats {
	return gcStats{cycles: g.cycles - o.cycles, gcCPU: g.gcCPU - o.gcCPU, busy: g.busy - o.busy}
}

func (g gcStats) add(o gcStats) gcStats {
	return gcStats{cycles: g.cycles + o.cycles, gcCPU: g.gcCPU + o.gcCPU, busy: g.busy + o.busy}
}

// verifier compares every run's fingerprint against the first run of the
// same job and counts attempts and failures.
type verifier struct {
	ref       map[string]uint64
	attempted int
	failed    int
	errs      []string
}

func newVerifier() *verifier { return &verifier{ref: map[string]uint64{}} }

// record books one run of job label; err is the run's own failure, if any.
func (v *verifier) record(label string, o outcome, err error) {
	v.attempted++
	if err == nil {
		err = o.check()
	}
	if err == nil {
		if ref, ok := v.ref[label]; !ok {
			v.ref[label] = o.fp
		} else if ref != o.fp {
			err = fmt.Errorf("fingerprint %016x differs from the first run's %016x", o.fp, ref)
		}
	}
	if err != nil {
		v.failed++
		v.errs = append(v.errs, fmt.Sprintf("%s: %v", label, err))
	}
}

// fail books an operation that failed outside a run, such as a set-up-only
// round.
func (v *verifier) fail(what string, err error) {
	v.attempted++
	v.failed++
	v.errs = append(v.errs, fmt.Sprintf("%s: %v", what, err))
}

// expect books an extra fingerprint comparison between two runs that must
// agree, such as a sharded run at 1 and at 2 workers.
func (v *verifier) expect(what string, got, want uint64) {
	if got != want {
		v.fail(what, fmt.Errorf("fingerprint %016x, want %016x", got, want))
		return
	}
	v.attempted++
}
