package shard

import (
	"sort"

	"repro/internal/phy"
	"repro/internal/stats"
	"repro/internal/topo"
)

// PairAudit summarizes one coupled domain pair's boundary digests after the
// run.
type PairAudit struct {
	// A and B are the domain indices, A < B.
	A, B int
	// Messages counts the digests read over the pair (both directions).
	Messages int
	// FinalAB and FinalBA are the last digests A→B and B→A: each side's
	// cumulative boundary deliveries as of the last lookahead boundary
	// before the deadline.
	FinalAB, FinalBA int64
}

// channel is one direction of a coupled domain pair: the sender's links
// facing the peer and a tally of the digests read over them. A domain's
// channels are touched only by the task stepping that domain.
type channel struct {
	to int
	// boundary lists the sender's local link ids whose AP sits on a severed
	// conflict edge toward to — the digest's summation set.
	boundary []int
	// count is the number of digests read; last is the most recent one.
	count int
	last  int64
}

// read folds the sender's current digest into the tally: its cumulative
// delivered-packet count over the boundary links. The residual interference
// itself stays approximated away, which is exactly what accepting the RSS
// cut means.
func (c *channel) read(coll *stats.Collector) {
	var digest int64
	for _, l := range c.boundary {
		digest += int64(coll.Link(l).DeliveredPkts)
	}
	c.count++
	c.last = digest
}

// coupling is the partition's cross-domain audit topology: one channel per
// direction of every coupled domain pair.
type coupling struct {
	// chans[d] lists d's outgoing channels, sorted by peer.
	chans [][]channel
	// pairs lists the coupled domain pairs in canonical (A, B) order.
	pairs [][2]int
}

// newCoupling builds the channels from the partition's severed edges.
func newCoupling(p *topo.Partition) *coupling {
	c := &coupling{chans: make([][]channel, len(p.Domains)), pairs: p.CrossDomainPairs()}
	// Pairs come sorted by (A, B), so every domain's channels are appended
	// in ascending peer order: lower peers (as B) before higher (as A).
	for _, pr := range c.pairs {
		c.chans[pr[0]] = append(c.chans[pr[0]], channel{to: pr[1]})
		c.chans[pr[1]] = append(c.chans[pr[1]], channel{to: pr[0]})
	}
	// Boundary link sets: for every severed edge, the links of each
	// endpoint AP face the opposite domain.
	local := make([]int, len(p.Graph.Links)) // global link id → id within its domain
	for d := range p.Domains {
		for i, g := range p.Domains[d].Links {
			local[g] = i
		}
	}
	apLinks := map[phy.NodeID][]int{}
	for i, l := range p.Graph.Links {
		apLinks[l.AP] = append(apLinks[l.AP], i)
	}
	add := func(ap phy.NodeID, from, to int) {
		ch := c.channel(from, to)
		for _, g := range apLinks[ap] {
			ch.boundary = append(ch.boundary, local[g])
		}
	}
	for _, e := range p.Cuts {
		da, db := p.NodeDomain[e.A], p.NodeDomain[e.B]
		if da == db {
			continue
		}
		add(e.A, da, db)
		add(e.B, db, da)
	}
	for _, chs := range c.chans {
		for i := range chs {
			sort.Ints(chs[i].boundary)
		}
	}
	return c
}

// channel returns the from→to channel; the pair must be coupled.
func (c *coupling) channel(from, to int) *channel {
	chs := c.chans[from]
	i := sort.Search(len(chs), func(i int) bool { return chs[i].to >= to })
	return &chs[i]
}

// messages is the total number of digests read so far.
func (c *coupling) messages() int {
	n := 0
	for _, chs := range c.chans {
		for i := range chs {
			n += chs[i].count
		}
	}
	return n
}

// audits returns the per-pair audit totals in canonical pair order.
func (c *coupling) audits() []PairAudit {
	out := make([]PairAudit, len(c.pairs))
	for i, pr := range c.pairs {
		ab, ba := c.channel(pr[0], pr[1]), c.channel(pr[1], pr[0])
		out[i] = PairAudit{A: pr[0], B: pr[1], Messages: ab.count + ba.count, FinalAB: ab.last, FinalBA: ba.last}
	}
	return out
}
