package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/domino"
	"repro/internal/phy"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/topo"
)

// profileDir holds the traced run's CPU profiles, under the build directory
// run.sh uses.
const profileDir = ".bench_build/perf"

// cpuPackages are the packages the traced run's CPU profile is split into;
// samples in any other package count as cpu_share.other.
var cpuPackages = []string{
	"topo", "sim", "phy", "dcf", "domino", "mac", "strict", "convert",
	"poll", "rop", "traffic", "obs", "shard", "runtime", "math",
}

// perLayer are the metrics a traced run reports, in output order.
var perLayer = append([]metricDef{
	{"topo.build_s", "s"},
	{"topo.conflict_graph_s", "s"},
	{"topo.partition_s", "s"},
	{"core.instance_build_s", "s"},
	{"topo.conflict_pairs", "count"},
	{"topo.conflict_edges", "count"},
	{"topo.domains", "count"},
	{"topo.cut_edges", "count"},
	{"sim.events", "count"},
	{"sim.events.phy", "count"},
	{"sim.events.mac", "count"},
	{"sim.events.traffic", "count"},
	{"sim.self_s.phy", "s"},
	{"sim.self_s.mac", "s"},
	{"sim.self_s.traffic", "s"},
	{"sim.ns_per_event", "ns"},
	{"sim.pending_max", "count"},
	{"phy.tx", "count"},
	{"phy.rx_judged", "count"},
	{"phy.rx_per_tx", "ratio"},
	{"phy.rx_ok_ratio", "ratio"},
	{"mac.queue_depth_mean", "pkts"},
	{"mac.queue_depth_max", "pkts"},
	{"mac.drop_ratio", "ratio"},
	{"strict.schedule_s", "s"},
	{"strict.calls", "count"},
	{"convert.batches", "count"},
	{"convert.cache_hit_ratio", "ratio"},
	{"convert.pass_s", "s"},
	{"poll.rounds", "count"},
	{"poll.failed", "count"},
	{"shard.windows", "count"},
	{"shard.messages", "count"},
	{"shard.window_us_p50", "us"},
	{"shard.window_us_p99", "us"},
	{"shard.cpu_util", "ratio"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"trace_overhead_frac", "ratio"},
}, cpuShareDefs()...)

func cpuShareDefs() []metricDef {
	defs := make([]metricDef, 0, len(cpuPackages)+1)
	for _, p := range append(cpuPackages, "other") {
		defs = append(defs, metricDef{"cpu_share." + p, "ratio"})
	}
	return defs
}

// ledger accumulates the per-layer figures of a traced pass over every job.
type ledger struct {
	vals map[string]float64 // plain sums, keyed by metric name

	scheds     schedulers
	windows    []float64 // µs per sharded StepWindow
	rxOK       float64
	queueSum   uint64
	queueN     uint64
	delivered  int
	dropped    int
	cacheHits  float64
	cacheTotal float64
	tracedLoop time.Duration
	cpuSeconds float64 // process CPU over sharded loops
	cpuBudget  float64 // loop wall × workers over sharded loops
}

// traced makes the per-layer run: an untraced pass, a traced pass under a
// labelled CPU profile, a second untraced pass as the overhead reference,
// the set-up layers timed on their own, and for sharded workloads a
// 1-worker run that must match the 2-worker result.
func traced(w workload, set jobSet, seed int64, v *verifier) (map[string]float64, error) {
	l := &ledger{vals: map[string]float64{}}

	// The first untraced pass warms the process up and sets the reference
	// fingerprints.
	untraced := func() (loop time.Duration, gc gcStats) {
		for _, j := range set.jobs {
			t, o, err := timedRun(j)
			v.record(j.label, o, err)
			loop += t.loop
			gc = gc.add(t.gc)
		}
		return loop, gc
	}
	untraced()

	if err := os.MkdirAll(profileDir, 0o755); err != nil {
		return nil, fmt.Errorf("profile dir: %w", err)
	}
	prof := filepath.Join(profileDir, fmt.Sprintf("%s-seed%d.pprof", w.name, seed))
	f, err := os.Create(prof)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("profile: %w", err)
	}
	for _, j := range set.jobs {
		o, err := l.tracedRun(w.name, j)
		v.record(j.label, o, err)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	// The untraced pass right after the traced one is the reference for
	// the tracing overhead and the runtime GC figures.
	untracedLoop, gc := untraced()
	l.vals["runtime.gc_cycles"] = float64(gc.cycles)
	l.vals["runtime.gc_cpu_frac"] = ratio(gc.gcCPU, gc.busy)

	for _, j := range set.jobs {
		if err := l.timeTopology(j); err != nil {
			return nil, err
		}
	}

	for _, j := range set.jobs {
		if j.spec.ShardWorkers() < 2 {
			continue
		}
		one := j
		n := 1
		one.spec.Shards = &n
		what := fmt.Sprintf("%s at 1 worker vs %d", j.label, j.spec.ShardWorkers())
		if _, o, err := timedRun(one); err != nil {
			v.fail(what, err)
		} else {
			v.expect(what, o.fp, v.ref[j.label])
		}
	}

	shares, err := cpuShares(prof)
	if err != nil {
		return nil, err
	}
	for p, s := range shares {
		l.vals["cpu_share."+p] = s
	}
	l.finish(untracedLoop)
	return l.vals, nil
}

// timeTopology times the set-up layers on the inputs job j runs on: the
// scenario build (topology and RSS), the conflict graph when the scheme or
// the sharded runner needs one, and the partition of a sharded run.
func (l *ledger) timeTopology(j job) error {
	t0 := time.Now()
	sc, err := core.BuildScenario(j.spec)
	l.vals["topo.build_s"] += time.Since(t0).Seconds()
	if err != nil {
		return fmt.Errorf("%s: %w", j.label, err)
	}
	d, ok := scheme.Lookup(j.spec.Scheme)
	sharded := j.spec.ShardWorkers() > 0
	if !sharded && (!ok || !d.NeedsConflictGraph) {
		return nil
	}
	links := sc.Links
	if links == nil {
		links = sc.Net.BuildLinks(sc.Downlink, sc.Uplink)
	}
	pcfg := phy.DefaultConfig()
	if sc.PhyConfig != nil {
		pcfg = *sc.PhyConfig
	}
	rate := sc.Rate
	if rate == 0 {
		rate = phy.Rate12
	}
	t0 = time.Now()
	g := topo.NewConflictGraph(sc.Net, links, pcfg, rate)
	l.vals["topo.conflict_graph_s"] += time.Since(t0).Seconds()
	n := len(links)
	l.vals["topo.conflict_pairs"] += float64(n * (n - 1) / 2)
	deg := 0
	for i := 0; i < n; i++ {
		deg += g.Degree(i)
	}
	l.vals["topo.conflict_edges"] += float64(deg / 2)
	if sharded {
		t0 = time.Now()
		p := topo.PartitionDomains(g, topo.DefaultCutDBm)
		l.vals["topo.partition_s"] += time.Since(t0).Seconds()
		l.vals["topo.domains"] += float64(len(p.Domains))
		l.vals["topo.cut_edges"] += float64(p.Stats.CutEdges)
	}
	return nil
}

// tracedRun sets up job j with metrics on and the ledger's hooks attached,
// steps it, and books its per-layer figures. Set-up and loop run under
// pprof labels workload=<name> and phase=setup|loop.
func (l *ledger) tracedRun(workload string, j job) (outcome, error) {
	sp := j.spec
	sp.Obs.Metrics = true
	var b *built
	var err error
	pprof.Do(context.Background(), pprof.Labels("workload", workload, "phase", "setup"), func(context.Context) {
		var sc core.Scenario
		sc, err = core.BuildScenario(sp)
		if err != nil {
			return
		}
		sc.TuneDomino = func(c *domino.Config) { c.NewScheduler = l.scheds.factory(c.Scheduler) }
		t0 := time.Now()
		b, err = newBuilt(sc, sp)
		l.vals["core.instance_build_s"] += time.Since(t0).Seconds()
	})
	if err != nil {
		return outcome{}, fmt.Errorf("%s: setup: %w", j.label, err)
	}
	var ls []*instLedger
	for _, inst := range b.instances() {
		ls = append(ls, attach(inst))
	}
	defer l.fold(ls)
	sharded := b.st != nil

	var ru0 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // cannot fail for RUSAGE_SELF
	t0 := time.Now()
	pprof.Do(context.Background(), pprof.Labels("workload", workload, "phase", "loop"), func(context.Context) {
		b.step(func(d time.Duration) {
			for _, il := range ls {
				if sharded {
					il.k.drop()
				} else {
					il.k.flush()
				}
			}
			if sharded {
				l.windows = append(l.windows, float64(d.Nanoseconds())/1e3)
			}
		})
	})
	loop := time.Since(t0)
	l.tracedLoop += loop
	if sharded {
		var ru1 syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
		l.cpuSeconds += cpuTime(ru1) - cpuTime(ru0)
		l.cpuBudget += loop.Seconds() * float64(j.spec.ShardWorkers())
	}

	o, err := b.finish()
	if err != nil {
		return o, fmt.Errorf("%s: finish: %w", j.label, err)
	}
	for _, s := range linkStats(o.res.Collector) {
		l.delivered += s.DeliveredPkts
		l.dropped += s.DroppedPkts
	}
	snap := o.res.Snapshot
	get := func(name string) float64 {
		mv, _ := snap.Get(name)
		return mv.Value
	}
	l.vals["convert.batches"] += get("convert.batches")
	l.cacheHits += get("convert.cache.hits")
	l.cacheTotal += get("convert.cache.hits") + get("convert.cache.misses")
	l.vals["poll.rounds"] += get("poll.rounds")
	l.vals["poll.failed"] += get("poll.failed")
	for _, mv := range snap {
		if strings.HasPrefix(mv.Name, "convert.pass.") && strings.HasSuffix(mv.Name, ".ns") {
			l.vals["convert.pass_s"] += mv.Value / 1e9
		}
	}
	if o.rep != nil {
		l.vals["shard.windows"] += float64(o.rep.Windows)
		l.vals["shard.messages"] += float64(o.rep.Messages)
	}
	return o, nil
}

func cpuTime(ru syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// fold adds one run's per-instance hooks and scheduler timers to the
// ledger's totals, so the traced pass keeps no run alive after it finishes.
func (l *ledger) fold(ls []*instLedger) {
	v := l.vals
	for _, il := range ls {
		for src, name := range map[sim.Source]string{sim.SrcPHY: "phy", sim.SrcMAC: "mac", sim.SrcTraffic: "traffic"} {
			v["sim.events."+name] += float64(il.k.events[src])
			v["sim.self_s."+name] += il.k.selfSeconds(src)
		}
		for _, n := range il.k.events {
			v["sim.events"] += float64(n)
		}
		v["sim.pending_max"] = math.Max(v["sim.pending_max"], float64(il.k.pendingMax))
		v["phy.tx"] += float64(il.p.tx)
		v["phy.rx_judged"] += float64(il.p.judged)
		l.rxOK += float64(il.p.ok)
		l.queueSum += il.q.depthSum
		l.queueN += il.q.samples
		v["mac.queue_depth_max"] = math.Max(v["mac.queue_depth_max"], float64(il.q.depthMax))
	}
	for _, t := range l.scheds.list {
		v["strict.schedule_s"] += float64(t.ns) / 1e9
		v["strict.calls"] += float64(t.calls)
	}
	l.scheds.list = nil
}

// finish folds the per-instance hooks into the ledger's metrics.
func (l *ledger) finish(untracedLoop time.Duration) {
	v := l.vals
	// NewInstance and shard.New build the conflict graph (and shard.New the
	// partition) themselves; the rest of their time is engine construction.
	v["core.instance_build_s"] -= v["topo.conflict_graph_s"] + v["topo.partition_s"]
	v["phy.rx_per_tx"] = ratio(v["phy.rx_judged"], v["phy.tx"])
	v["phy.rx_ok_ratio"] = ratio(l.rxOK, v["phy.rx_judged"])
	v["mac.queue_depth_mean"] = ratio(float64(l.queueSum), float64(l.queueN))
	v["mac.drop_ratio"] = ratio(float64(l.dropped), float64(l.dropped+l.delivered))
	v["sim.ns_per_event"] = ratio(float64(l.tracedLoop.Nanoseconds()), v["sim.events"])
	v["convert.cache_hit_ratio"] = ratio(l.cacheHits, l.cacheTotal)
	v["shard.window_us_p50"] = quantile(l.windows, 0.5)
	v["shard.window_us_p99"] = quantile(l.windows, 0.99)
	v["shard.cpu_util"] = ratio(l.cpuSeconds, l.cpuBudget)
	v["trace_overhead_frac"] = ratio((l.tracedLoop - untracedLoop).Seconds(), untracedLoop.Seconds())
}

// ratio is a/b, or 0 when b is 0 (the layer did no work on this workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of xs by the nearest-rank method; 0 for
// no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
