package topo

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/phy"
)

// Components returns the connected components of the link conflict graph,
// computed over the bitset adjacency. Each component is a sorted slice of
// link IDs; components are ordered by their smallest member, so the output
// is a canonical partition of 0..len(Links)-1 independent of traversal
// order. Links with no conflicts form singleton components.
func (g *ConflictGraph) Components() [][]int {
	n := len(g.Links)
	visited := make([]bool, n)
	var comps [][]int
	queue := make([]int, 0, n)
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		visited[start] = true
		queue = append(queue[:0], start)
		comp := []int{start}
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			g.forEachNeighbour(v, func(j int) {
				if !visited[j] {
					visited[j] = true
					comp = append(comp, j)
					queue = append(queue, j)
				}
			})
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	// BFS from increasing start vertices already yields components ordered
	// by smallest member; keep the sort as a belt-and-braces canonical form.
	sort.Slice(comps, func(a, b int) bool { return comps[a][0] < comps[b][0] })
	return comps
}

// DefaultCutDBm is the default RSS-threshold for the interference-domain
// cut: an AP-conflict edge whose cluster coupling (strongest cross-cell RSS)
// is below this is severed, on the grounds that the residual interference is
// marginal — the campus generator records couplings below the measurement
// floor (-82 dBm) as absent entirely, so -78 dBm cuts only edges the
// measured map considers borderline.
const DefaultCutDBm = -78.0

// NoCutDBm disables the RSS-threshold cut: every AP-conflict edge is kept,
// so domains are the exact connected components of the AP conflict relation.
var NoCutDBm = math.Inf(-1)

// Domain is one interference domain of a Partition: a set of AP cells whose
// links conflict (directly or transitively) above the cut threshold. All
// slices are sorted ascending in global IDs.
type Domain struct {
	// Index is the domain's position within Partition.Domains.
	Index int
	// APs are the global AP node IDs in the domain.
	APs []phy.NodeID
	// Nodes are all global node IDs (APs plus their clients).
	Nodes []phy.NodeID
	// Links are the global link IDs whose AP belongs to the domain.
	Links []int
}

// CutStats quantifies the approximation introduced by the RSS-threshold cut.
type CutStats struct {
	// Domains is the number of interference domains.
	Domains int
	// KeptEdges counts AP-conflict edges within a domain.
	KeptEdges int
	// CutEdges counts AP-conflict edges severed by the threshold.
	CutEdges int
	// MaxCutDBm is the strongest cluster coupling among severed edges
	// (UnmeasuredDBm when no edge was cut).
	MaxCutDBm float64
	// CrossLinkPairs counts link-level conflict pairs that ended up in
	// different domains — the exact set of constraints the sharded run
	// ignores.
	CrossLinkPairs int
}

// CutEdge is one AP-conflict edge severed by the RSS-threshold cut: the
// residual coupling the sharded run approximates away (and audits through
// per-direction coupling digests).
type CutEdge struct {
	A, B phy.NodeID // the conflicting APs, A < B
	// CouplingDBm is the strongest cross-cell RSS between the two cells.
	CouplingDBm float64
}

// Partition is an interference-domain decomposition of a conflict graph:
// connected components of the AP conflict relation after severing edges
// whose cluster coupling falls below CutDBm.
type Partition struct {
	Graph  *ConflictGraph
	CutDBm float64
	// Domains are ordered by smallest global AP ID.
	Domains []Domain
	Stats   CutStats
	// Cuts lists every severed edge, in (A, B) scan order.
	Cuts []CutEdge
	// NodeDomain maps every global node ID to its domain index (-1 for
	// nodes outside any domain, e.g. clients of linkless APs are still
	// placed with their AP, so -1 does not occur on valid networks).
	NodeDomain []int
	// LinkDomain maps every global link ID to its domain index.
	LinkDomain []int
}

// PartitionDomains decomposes the conflict graph into interference domains.
// Two AP cells are coupled when APConflict holds AND the strongest RSS
// between any node of one cell and any node of the other is at least cutDBm;
// domains are the connected components of that relation. Every AP belongs to
// exactly one domain (linkless APs form singletons). Use NoCutDBm to keep
// every conflict edge.
func PartitionDomains(g *ConflictGraph, cutDBm float64) *Partition {
	net := g.Net
	aps := net.APs
	nAP := len(aps)
	apPos := make(map[phy.NodeID]int, nAP)
	for i, ap := range aps {
		apPos[ap] = i
	}
	// Cell membership: AP plus associated clients.
	clients := net.clientsByAP()
	cells := make([][]phy.NodeID, nAP)
	for i, ap := range aps {
		cells[i] = append([]phy.NodeID{ap}, clients[ap]...)
	}

	p := &Partition{Graph: g, CutDBm: cutDBm}
	p.Stats.MaxCutDBm = UnmeasuredDBm

	// Union-find over AP indices.
	parent := make([]int, nAP)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	coupling := func(a, b int) float64 {
		best := math.Inf(-1)
		for _, u := range cells[a] {
			for _, v := range cells[b] {
				if r := net.RSS[u][v]; r > best {
					best = r
				}
				if r := net.RSS[v][u]; r > best {
					best = r
				}
			}
		}
		return best
	}
	for i := 0; i < nAP; i++ {
		for j := i + 1; j < nAP; j++ {
			if !g.APConflict(aps[i], aps[j]) {
				continue
			}
			if c := coupling(i, j); c < cutDBm {
				p.Stats.CutEdges++
				p.Cuts = append(p.Cuts, CutEdge{A: aps[i], B: aps[j], CouplingDBm: c})
				if c > p.Stats.MaxCutDBm {
					p.Stats.MaxCutDBm = c
				}
				continue
			}
			p.Stats.KeptEdges++
			ri, rj := find(i), find(j)
			if ri != rj {
				parent[ri] = rj
			}
		}
	}

	// Group AP indices by root, order domains by smallest global AP ID
	// (APs are listed in ID order, so first-seen order is already that).
	rootDomain := map[int]int{}
	for i := 0; i < nAP; i++ {
		r := find(i)
		d, ok := rootDomain[r]
		if !ok {
			d = len(p.Domains)
			rootDomain[r] = d
			p.Domains = append(p.Domains, Domain{Index: d})
		}
		p.Domains[d].APs = append(p.Domains[d].APs, aps[i])
	}

	p.NodeDomain = make([]int, net.NumNodes())
	for i := range p.NodeDomain {
		p.NodeDomain[i] = -1
	}
	for d := range p.Domains {
		dom := &p.Domains[d]
		for _, ap := range dom.APs {
			for _, n := range cells[apPos[ap]] {
				dom.Nodes = append(dom.Nodes, n)
				p.NodeDomain[n] = d
			}
		}
		sort.Slice(dom.Nodes, func(a, b int) bool { return dom.Nodes[a] < dom.Nodes[b] })
	}

	p.LinkDomain = make([]int, len(g.Links))
	for i, l := range g.Links {
		d := p.NodeDomain[l.AP]
		p.LinkDomain[i] = d
		if d >= 0 {
			p.Domains[d].Links = append(p.Domains[d].Links, i)
		}
	}
	for d := range p.Domains {
		sort.Ints(p.Domains[d].Links)
	}

	// Link-level conflict pairs crossing domains: the constraints a sharded
	// run cannot enforce.
	for i := range g.Links {
		di := p.LinkDomain[i]
		g.forEachNeighbour(i, func(j int) {
			if j > i && di != p.LinkDomain[j] {
				p.Stats.CrossLinkPairs++
			}
		})
	}
	p.Stats.Domains = len(p.Domains)
	return p
}

// CrossDomainPairs returns the unordered domain-index pairs joined by at
// least one severed conflict edge, sorted by (low, high) — the canonical
// pair set for cross-domain coupling audits. Cut edges whose
// endpoints landed in the same domain anyway (reconnected through a kept
// path) produce no pair.
func (p *Partition) CrossDomainPairs() [][2]int {
	seen := map[[2]int]bool{}
	var pairs [][2]int
	for _, c := range p.Cuts {
		da, db := p.NodeDomain[c.A], p.NodeDomain[c.B]
		if da == db {
			continue
		}
		if da > db {
			da, db = db, da
		}
		key := [2]int{da, db}
		if !seen[key] {
			seen[key] = true
			pairs = append(pairs, key)
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a][0] != pairs[b][0] {
			return pairs[a][0] < pairs[b][0]
		}
		return pairs[a][1] < pairs[b][1]
	})
	return pairs
}

// Subnet extracts domain d as a standalone Network plus the monotone
// local→global node ID map. Local IDs are assigned in ascending global-ID
// order, so the relative order of APs and of each AP's clients is preserved:
// BuildLinks on the subnet yields exactly the global link set restricted to
// the domain, densely renumbered in the same relative order. Cross-domain
// RSS entries are dropped (that is the sharding approximation; see
// CutStats.CrossLinkPairs for how much conflict structure this severs).
func (p *Partition) Subnet(d int) (*Network, []phy.NodeID) {
	dom := &p.Domains[d]
	net := p.Graph.Net
	n := len(dom.Nodes)
	localOf := make(map[phy.NodeID]int, n)
	for i, g := range dom.Nodes {
		localOf[g] = i
	}
	sub := &Network{
		RSS:  make([][]float64, n),
		IsAP: make([]bool, n),
		APOf: make([]phy.NodeID, n),
	}
	if len(net.Pos) == net.NumNodes() {
		sub.Pos = make([]Point, n)
	}
	for i, g := range dom.Nodes {
		sub.RSS[i] = make([]float64, n)
		for j, h := range dom.Nodes {
			if i != j {
				sub.RSS[i][j] = net.RSS[g][h]
			}
		}
		sub.IsAP[i] = net.IsAP[g]
		sub.APOf[i] = phy.NodeID(localOf[net.APOf[g]])
		if sub.Pos != nil {
			sub.Pos[i] = net.Pos[g]
		}
	}
	for i, g := range dom.Nodes {
		if net.IsAP[g] {
			sub.APs = append(sub.APs, phy.NodeID(i))
		}
	}
	return sub, append([]phy.NodeID(nil), dom.Nodes...)
}

// Validate checks partition invariants: every AP in exactly one domain,
// every node and link mapped, domain slices sorted, and subnet extraction
// well-formed. Intended for tests and debug assertions.
func (p *Partition) Validate() error {
	net := p.Graph.Net
	seenAP := map[phy.NodeID]int{}
	for d := range p.Domains {
		dom := &p.Domains[d]
		if dom.Index != d {
			return fmt.Errorf("partition: domain %d has Index %d", d, dom.Index)
		}
		if len(dom.APs) == 0 {
			return fmt.Errorf("partition: domain %d has no APs", d)
		}
		for _, ap := range dom.APs {
			if prev, dup := seenAP[ap]; dup {
				return fmt.Errorf("partition: AP %d in domains %d and %d", ap, prev, d)
			}
			seenAP[ap] = d
		}
		if !sort.SliceIsSorted(dom.Nodes, func(a, b int) bool { return dom.Nodes[a] < dom.Nodes[b] }) {
			return fmt.Errorf("partition: domain %d nodes unsorted", d)
		}
		if !sort.IntsAreSorted(dom.Links) {
			return fmt.Errorf("partition: domain %d links unsorted", d)
		}
	}
	for _, ap := range net.APs {
		if _, ok := seenAP[ap]; !ok {
			return fmt.Errorf("partition: AP %d unassigned", ap)
		}
	}
	for id := 0; id < net.NumNodes(); id++ {
		if p.NodeDomain[id] < 0 {
			return fmt.Errorf("partition: node %d unassigned", id)
		}
	}
	for id, d := range p.LinkDomain {
		if d < 0 || d >= len(p.Domains) {
			return fmt.Errorf("partition: link %d has domain %d", id, d)
		}
	}
	return nil
}
