// Package shard runs one scenario as a set of per-interference-domain
// engine instances executing in parallel — the multi-core path for
// campus-scale topologies whose conflict graphs decompose into weakly
// coupled clusters (internal/topo.PartitionDomains).
//
// Execution model: every domain gets its own sim.Kernel + engine instance
// (core.NewInstance on the extracted subnetwork), and each domain runs
// straight through to the step horizon as one task on the worker pool — no
// domain ever reads anything from a peer, so nothing synchronizes domains
// mid-run. When the partition severed conflict edges, each coupled domain
// stops inside its own task at every lookahead multiple to read a
// coupling-audit digest per peer (its cumulative deliveries over the links
// facing that peer) into per-direction tallies. The lookahead is the
// wired-backbone latency floor (the central server cannot influence a
// remote AP faster than the backbone's N(285 µs, σ 22 µs) jitter
// distribution can deliver a coordination message); here it only sets the
// digest cadence.
//
// Determinism contract: domains, per-domain seeds, digest instants and
// every merge step depend only on the topology and the scenario — never on
// the worker count, the step granule or OS scheduling. The merged trace,
// metrics snapshot and Result are byte-identical at any Workers value,
// pinned by TestShardCountDeterminism and TestCoupledGridGolden.
package shard

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/domino"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// LookaheadFloor returns the coupling-digest cadence, derived from the
// wired-backbone jitter floor: the earliest instant a cross-domain
// coordination effect could land is one backbone traversal at the fast
// tail of the latency distribution, mean − 4σ of DOMINO's wired model
// (285 µs − 4·22 µs = 197 µs).
func LookaheadFloor() sim.Time {
	c := domino.DefaultConfig()
	return c.WiredLatencyMean - 4*c.WiredLatencyStd
}

// spanBaseShift namespaces per-domain span ids: domain d allocates ids
// above d<<40, far beyond any single run's span count.
const spanBaseShift = 40

// Options tunes a sharded run.
type Options struct {
	// Workers is the shard count — worker goroutines domains are scheduled
	// onto (≤ 0: all cores). Output is independent of this value.
	Workers int
	// CutDBm is the partition's RSS-threshold cut (0: topo.DefaultCutDBm;
	// use topo.NoCutDBm to keep every conflict edge).
	CutDBm float64
	// Lookahead overrides the coupling-digest cadence (0:
	// LookaheadFloor()). Ignored when the partition has no cross-domain
	// coupling.
	Lookahead sim.Time
	// StepGranule bounds how much simulated time one Steppable.StepWindow
	// call advances the run (0: the whole run in one step, as Run uses).
	// The run-lifecycle layer sets it so checkpoint/pause boundaries exist
	// mid-run; kernels step via RunBefore and digests are read at fixed
	// lookahead multiples, so any granule produces byte-identical output.
	StepGranule sim.Time
}

// Report describes how a sharded run executed: the partition, the coupling
// audit, and the per-domain results.
type Report struct {
	Partition *topo.Partition
	// Workers is the resolved worker count the domains were scheduled on.
	Workers int
	// Windows is the number of lookahead intervals the coupling digests
	// split the run into (0 for a partition without coupling).
	Windows int
	// Messages is the total coupling digests read, over all directions.
	Messages int
	// Audits holds per-pair coupling audit totals, in canonical pair
	// order.
	Audits []PairAudit
	// PerDomain holds each domain's local Result (local link ids).
	PerDomain []core.Result
}

// Run executes the scenario sharded by interference domain and returns the
// merged Result plus the execution Report. The scenario's Links must be nil
// (links are rebuilt per domain from the Downlink/Uplink flags), Trace and
// Live are unsupported in sharded mode. It is the one-shot wrapper around
// the steppable decomposition: New, StepWindow until done, Finish.
func Run(s core.Scenario, opt Options) (core.Result, *Report, error) {
	st, err := New(s, opt)
	if err != nil {
		return core.Result{}, nil, err
	}
	for !st.StepWindow() {
	}
	return st.Finish()
}

// Steppable is a sharded run decomposed into explicit steps — the form the
// run-lifecycle layer (internal/run) drives so a campus-scale run can
// pause, checkpoint and resume between step granules instead of executing
// in one opaque call. Construct with New, call StepWindow until it reports
// done, then Finish exactly once. Run is the loop-it-all wrapper.
type Steppable struct {
	s         core.Scenario
	opt       Options
	lookahead sim.Time
	granule   sim.Time
	links     []*topo.Link
	p         *topo.Partition
	insts     []*core.Instance
	tracers   []*remapTracer
	metrics   []*obs.Metrics
	coupling  *coupling
	rep       *Report
	// order lists domain indices largest first (links × nodes), so the
	// longest tasks start first and the pool's tail is the short ones.
	order []int

	// nextH is the horizon the next step advances to; steps counts
	// completed StepWindow calls (the checkpoint replay coordinate).
	nextH sim.Time
	steps int
	done  bool
}

// New builds the per-domain instances, the coupling channels and the
// report skeleton.
func New(s core.Scenario, opt Options) (*Steppable, error) {
	if s.Net == nil {
		return nil, fmt.Errorf("shard: Scenario.Net is nil")
	}
	if s.Links != nil {
		return nil, fmt.Errorf("shard: custom link sets are not shardable; use Downlink/Uplink flags")
	}
	if s.Trace != nil {
		return nil, fmt.Errorf("shard: Scenario.Trace (domino event microscope) is single-engine only")
	}
	if s.Live != nil {
		return nil, fmt.Errorf("shard: live metrics publishing is single-engine only")
	}
	if err := s.Net.Validate(); err != nil {
		return nil, fmt.Errorf("shard: invalid network: %w", err)
	}
	// Normalize exactly like core.NewInstance so digest instants and merged
	// rates use the same values the instances will.
	if s.PacketBytes == 0 {
		s.PacketBytes = 512
	}
	if s.Rate == 0 {
		s.Rate = phy.Rate12
	}
	if s.Duration == 0 {
		s.Duration = 10 * sim.Second
	}
	cut := opt.CutDBm
	if cut == 0 {
		cut = topo.DefaultCutDBm
	}
	lookahead := opt.Lookahead
	if lookahead <= 0 {
		lookahead = LookaheadFloor()
	}

	links := s.Net.BuildLinks(s.Downlink, s.Uplink)
	pcfg := phy.DefaultConfig()
	if s.PhyConfig != nil {
		pcfg = *s.PhyConfig
	}
	g := topo.NewConflictGraph(s.Net, links, pcfg, s.Rate)
	p := topo.PartitionDomains(g, cut)

	rep := &Report{Partition: p, Workers: parallel.Workers(opt.Workers)}
	nd := len(p.Domains)

	// Per-domain instances. Seeds derive from the domain index only, so a
	// domain's whole event stream is independent of the worker count.
	insts := make([]*core.Instance, nd)
	tracers := make([]*remapTracer, nd)
	metrics := make([]*obs.Metrics, nd)
	for d := 0; d < nd; d++ {
		sub, nodeMap := p.Subnet(d)
		sd := s
		sd.Net = sub
		sd.Seed = parallel.Seed(s.Seed, d, parallel.DefaultStride)
		if s.Tracer != nil {
			tracers[d] = newRemapTracer(d, nodeMap, p.Domains[d].Links)
			sd.Tracer = tracers[d]
		}
		if s.Metrics != nil {
			metrics[d] = obs.NewMetrics()
			sd.Metrics = metrics[d]
		}
		if sd.Tracer != nil || sd.Metrics != nil {
			nm, di := nodeMap, d
			sd.ObsSetup = func(r *obs.Run) {
				r.SetSpanBase(int64(di+1) << spanBaseShift)
				r.SetNodeMapper(func(local int) int { return int(nm[local]) })
			}
		}
		inst, err := core.NewInstance(sd)
		if err != nil {
			return nil, fmt.Errorf("shard: domain %d: %w", d, err)
		}
		insts[d] = inst
	}

	c := newCoupling(p)
	if len(c.pairs) > 0 {
		rep.Windows = int((s.Duration + lookahead - 1) / lookahead)
	}
	granule := opt.StepGranule
	if granule <= 0 {
		granule = s.Duration
	}
	order := make([]int, nd)
	for d := range order {
		order[d] = d
	}
	size := func(d int) int { return len(p.Domains[d].Links) * len(p.Domains[d].Nodes) }
	sort.SliceStable(order, func(i, j int) bool { return size(order[i]) > size(order[j]) })

	return &Steppable{
		s: s, opt: opt, lookahead: lookahead, granule: granule, links: links, p: p,
		insts: insts, tracers: tracers, metrics: metrics,
		coupling: c, rep: rep, order: order, nextH: granule,
	}, nil
}

// Steps returns the number of completed StepWindow calls — the replay
// coordinate a checkpoint records.
func (st *Steppable) Steps() int { return st.steps }

// Instances exposes the per-domain cores in domain-index order so the
// run-lifecycle layer can audit kernel and engine state at a step
// boundary. Callers must not step them directly.
func (st *Steppable) Instances() []*core.Instance { return st.insts }

// Messages returns the coupling digests read so far.
func (st *Steppable) Messages() int { return st.coupling.messages() }

// Done reports whether the run has reached its deadline.
func (st *Steppable) Done() bool { return st.done }

// Clock returns the horizon the run has advanced to (0 before any step).
func (st *Steppable) Clock() sim.Time {
	if st.done {
		return st.s.Duration
	}
	return st.nextH - st.granule
}

// StepWindow advances every domain one step granule and reports whether
// the run is done. It is one fan-out over the worker pool, largest domain
// first; each task runs its domain straight to the horizon (see advance).
func (st *Steppable) StepWindow() bool {
	if st.done {
		return true
	}
	from, h := st.Clock(), st.nextH
	parallel.ForEach(st.opt.Workers, len(st.order), func(i int) {
		st.advance(st.order[i], from, h)
	})
	st.steps++
	st.nextH += st.granule
	st.done = h >= st.s.Duration
	return st.done
}

// advance steps domain d from horizon from to h (the deadline, inclusive,
// once h reaches it). A coupled domain stops at every lookahead multiple in
// (from, h] below the deadline to read its digests, so the digest instants
// — and with RunBefore's resumability every event — are independent of
// the granule. Runs on the domain's task; touches only d-owned state.
func (st *Steppable) advance(d int, from, h sim.Time) {
	inst, end := st.insts[d], st.s.Duration
	if chans := st.coupling.chans[d]; len(chans) > 0 {
		for t := (from/st.lookahead + 1) * st.lookahead; t <= h && t < end; t += st.lookahead {
			inst.StepBefore(t)
			for i := range chans {
				chans[i].read(inst.Collector())
			}
		}
	}
	if h >= end {
		inst.Step(end)
	} else {
		inst.StepBefore(h)
	}
}

// Finish merges the per-domain results into the campus-wide Result and
// emits the merged trace. Call exactly once, after StepWindow reports done.
func (st *Steppable) Finish() (core.Result, *Report, error) {
	if !st.done {
		return core.Result{}, nil, fmt.Errorf("shard: Finish before the run reached its deadline (clock %v of %v)", st.Clock(), st.s.Duration)
	}
	s, rep := st.s, st.rep
	rep.Messages = st.coupling.messages()
	rep.Audits = st.coupling.audits()

	// Merge. Every step below iterates domains in index order, so the
	// merged result is a pure function of the partition.
	for d := 0; d < len(st.p.Domains); d++ {
		rep.PerDomain = append(rep.PerDomain, st.insts[d].Finish())
	}
	res := mergeResults(s, st.links, st.p, rep, st.metrics)
	if s.Tracer != nil {
		emitMerged(s, st.p, rep, st.tracers, res)
	}
	return res, rep, nil
}

// mergeResults folds the per-domain results into one campus-wide Result in
// the global link index space.
func mergeResults(s core.Scenario, links []*topo.Link, p *topo.Partition, rep *Report, metrics []*obs.Metrics) core.Result {
	res := core.Result{Links: links, DataLinkID: map[int]bool{}}
	coll := stats.NewCollector(len(links), s.Warmup)
	for d, dr := range rep.PerDomain {
		linkMap := p.Domains[d].Links
		coll.MergeMapped(dr.Collector, func(local int) int { return linkMap[local] })
		for local := range dr.DataLinkID {
			res.DataLinkID[linkMap[local]] = true
		}
		for _, l := range dr.SkippedLinks {
			res.SkippedLinks = append(res.SkippedLinks, links[linkMap[l.ID]])
		}
	}
	res.Collector = coll
	res.PerLinkMbps = coll.PerLinkMbps(s.Duration)
	res.AggregateMbps = coll.AggregateMbps(s.Duration)
	res.MeanDelay = coll.MeanDelay()
	res.MeanDelayPerLink = coll.MeanDelayPerLink()
	var dataRates []float64
	for id := range res.PerLinkMbps {
		if res.DataLinkID[id] {
			res.DataMbps += res.PerLinkMbps[id]
			dataRates = append(dataRates, res.PerLinkMbps[id])
		}
	}
	res.Fairness = stats.JainIndex(dataRates)

	if s.Metrics != nil {
		for d := range metrics {
			s.Metrics.Merge(metrics[d])
		}
		s.Metrics.Counter("shard.domains").Add(int64(len(p.Domains)))
		s.Metrics.Counter("shard.windows").Add(int64(rep.Windows))
		s.Metrics.Counter("shard.messages").Add(int64(rep.Messages))
		s.Metrics.Counter("shard.cut_edges").Add(int64(p.Stats.CutEdges))
		s.Metrics.Counter("shard.cross_link_pairs").Add(int64(p.Stats.CrossLinkPairs))
		res.Snapshot = s.Metrics.Snapshot()
	}
	return res
}

// emitMerged streams the merged trace: a global run-open record, the
// k-way-merged per-domain streams, the merged-registry histogram summaries
// (mirroring obs.Run.Finish), and the global run-close record. The merge
// key is (timestamp, domain, stream order) — independent of Workers.
func emitMerged(s core.Scenario, p *topo.Partition, rep *Report, tracers []*remapTracer, res core.Result) {
	start := obs.Rec(0, obs.KindRunStart)
	start.Value = s.Seed
	start.Aux = s.SchemeName
	if start.Aux == "" {
		start.Aux = s.Scheme.String()
	}
	s.Tracer.Emit(start)

	mergeStreams(tracers, s.Tracer)

	var collisions int64
	for _, dr := range rep.PerDomain {
		if dr.Breakdown != nil {
			collisions += dr.Breakdown.Collisions
		}
	}
	if s.Metrics != nil {
		for _, mv := range res.Snapshot {
			if mv.Kind != "loghist" {
				continue
			}
			rec := obs.Rec(s.Duration, obs.KindMetric)
			rec.Aux = mv.Name
			rec.Value = int64(mv.Value)
			rec.Extra = int64(mv.P99)
			s.Tracer.Emit(rec)
		}
	}
	end := obs.Rec(s.Duration, obs.KindRunEnd)
	end.Value = collisions
	s.Tracer.Emit(end)
}

// mergeStreams k-way merges the per-domain record streams by
// (At, domain, stream position) into out. Streams are individually
// time-ordered (each comes from one single-threaded event loop), so a heap
// over the stream heads yields a total deterministic order.
func mergeStreams(tracers []*remapTracer, out obs.Tracer) {
	type head struct {
		domain int
		pos    int
	}
	heads := make([]head, 0, len(tracers))
	for d, tr := range tracers {
		if tr != nil && len(tr.recs) > 0 {
			heads = append(heads, head{domain: d})
		}
	}
	less := func(a, b head) bool {
		ra, rb := tracers[a.domain].recs[a.pos], tracers[b.domain].recs[b.pos]
		if ra.At != rb.At {
			return ra.At < rb.At
		}
		return a.domain < b.domain
	}
	for len(heads) > 0 {
		best := 0
		for i := 1; i < len(heads); i++ {
			if less(heads[i], heads[best]) {
				best = i
			}
		}
		h := heads[best]
		out.Emit(tracers[h.domain].recs[h.pos])
		h.pos++
		if h.pos < len(tracers[h.domain].recs) {
			heads[best] = h
		} else {
			heads = append(heads[:best], heads[best+1:]...)
		}
	}
}
