package topo

import (
	"math"
	"math/bits"

	"repro/internal/phy"
)

// ConflictGraph is the link-interference graph G(V,E) the central server
// derives from the interference map (paper §3): vertices are links, an edge
// means the two links cannot transmit concurrently. Independent sets of the
// graph may share a slot.
type ConflictGraph struct {
	Net   *Network
	Links []*Link
	cfg   phy.Config
	rate  phy.Rate
	// adjBits is the adjacency as a bitset (row-major, 64 links per word),
	// so the hot independent-set scan touches one word per 64 candidates.
	adjBits  [][]uint64
	adjWords int
	// apConflict caches APConflict for every AP pair (indexed through
	// apIndex), marked from the edges at construction — the converter's
	// ROP-sharing checks would otherwise rescan all link pairs on every
	// call.
	apIndex    map[phy.NodeID]int
	apConflict [][]bool
}

// NewConflictGraph computes the conflict graph for the given links at the
// given data rate: two links conflict when they share a node or when their
// concurrent exchanges interfere. An exchange is bidirectional — data from
// the sender plus the link-layer ACK from the receiver — so the test covers
// data-vs-data, data-vs-ACK (slots can be misaligned by tens of µs while
// relative scheduling converges) and ACK-vs-ACK corruption.
//
// A transmission from node u breaks the src→dst direction of a link when
//
//	RSS[src][dst] − MwToDBm(DBmToMw(RSS[u][dst]) + noiseMw) < threshold + ConflictMarginDB
//
// (u not an endpoint), and every link touching u then conflicts with that
// link. The construction walks, per receiver, only the interferers the map
// actually measured: the interference level is computed once per measured
// (u, dst) pair, and every UnmeasuredDBm entry shares one precomputed level.
// A direction whose signal already fails against that shared level is broken
// by every unmeasured interferer too, so only then are all nodes visited.
// The comparison itself is unchanged, so the graph is exact; the cost is
// O(links × measured neighbours) instead of O(links²) transcendentals.
func NewConflictGraph(net *Network, links []*Link, cfg phy.Config, rate phy.Rate) *ConflictGraph {
	g := &ConflictGraph{Net: net, Links: links, cfg: cfg, rate: rate}
	n := len(links)
	g.adjWords = (n + 63) / 64
	g.adjBits = make([][]uint64, n)
	rows := make([]uint64, n*g.adjWords)
	for i := range g.adjBits {
		g.adjBits[i] = rows[i*g.adjWords : (i+1)*g.adjWords : (i+1)*g.adjWords]
	}

	// incident[v] lists the links with v as sender or receiver.
	incident := make([][]int, net.NumNodes())
	for i, l := range links {
		incident[l.Sender] = append(incident[l.Sender], i)
		incident[l.Receiver] = append(incident[l.Receiver], i)
	}
	// Shared-node conflicts.
	for _, ls := range incident {
		for _, i := range ls {
			for _, j := range ls {
				if i != j {
					g.set(i, j)
				}
			}
		}
	}

	// Interference conflicts, one receiver at a time: the directions with
	// receiver v are exactly v's incident links (data when v receives, ACK
	// when v sends).
	noiseMw := phy.DBmToMw(cfg.NoiseDBm)
	level := func(rss float64) float64 { return phy.MwToDBm(phy.DBmToMw(rss) + noiseMw) }
	unmeasured := level(UnmeasuredDBm)
	need := phy.SNRThresholdDB(rate) + ConflictMarginDB
	heard := measuredInterferers(net, level)
	for v, ls := range incident {
		dst := phy.NodeID(v)
		from, lvl := heard.at(v)
		for _, i := range ls {
			src := links[i].Sender
			if src == dst {
				src = links[i].Receiver
			}
			signal := net.RSS[src][dst]
			if signal-unmeasured < need {
				for u := range net.RSS {
					if net.RSS[u][v] == UnmeasuredDBm && u != v && phy.NodeID(u) != src {
						g.setAll(i, incident[u])
					}
				}
			}
			for k, u := range from {
				if phy.NodeID(u) != src && signal-lvl[k] < need {
					g.setAll(i, incident[u])
				}
			}
		}
	}
	g.buildAPConflict()
	return g
}

// interferers lists, for every receiver v, the nodes u ≠ v whose RSS at v
// the map measured (not UnmeasuredDBm), with their interference level at v:
// from[start[v]:start[v+1]] and level[start[v]:start[v+1]].
type interferers struct {
	start []int
	from  []int32
	level []float64
}

// measuredInterferers builds the per-receiver lists in two row-major passes
// over the RSS matrix (count, then fill), computing each level once.
func measuredInterferers(net *Network, level func(rss float64) float64) interferers {
	n := net.NumNodes()
	h := interferers{start: make([]int, n+1)}
	for u, row := range net.RSS {
		for v, r := range row {
			if r != UnmeasuredDBm && u != v {
				h.start[v+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		h.start[v+1] += h.start[v]
	}
	h.from = make([]int32, h.start[n])
	h.level = make([]float64, h.start[n])
	next := append([]int(nil), h.start[:n]...)
	for u, row := range net.RSS {
		for v, r := range row {
			if r != UnmeasuredDBm && u != v {
				h.from[next[v]] = int32(u)
				h.level[next[v]] = level(r)
				next[v]++
			}
		}
	}
	return h
}

// at returns receiver v's measured interferers and their levels.
func (h interferers) at(v int) ([]int32, []float64) {
	return h.from[h.start[v]:h.start[v+1]], h.level[h.start[v]:h.start[v+1]]
}

// set marks links i and j as conflicting.
func (g *ConflictGraph) set(i, j int) {
	g.adjBits[i][j>>6] |= 1 << (uint(j) & 63)
	g.adjBits[j][i>>6] |= 1 << (uint(i) & 63)
}

// setAll marks link i as conflicting with every link in js.
func (g *ConflictGraph) setAll(i int, js []int) {
	for _, j := range js {
		g.set(i, j)
	}
}

// buildAPConflict derives the AP-pair conflict relation from the edges: ap1
// and ap2 conflict when any link of ap1 is adjacent to any link of ap2.
func (g *ConflictGraph) buildAPConflict() {
	g.apIndex = map[phy.NodeID]int{}
	apOf := make([]int, len(g.Links))
	for i, l := range g.Links {
		a, ok := g.apIndex[l.AP]
		if !ok {
			a = len(g.apIndex)
			g.apIndex[l.AP] = a
		}
		apOf[i] = a
	}
	g.apConflict = make([][]bool, len(g.apIndex))
	cells := make([]bool, len(g.apIndex)*len(g.apIndex))
	for a := range g.apConflict {
		g.apConflict[a] = cells[a*len(g.apIndex) : (a+1)*len(g.apIndex)]
	}
	for i := range g.Links {
		row := g.apConflict[apOf[i]]
		g.forEachNeighbour(i, func(j int) { row[apOf[j]] = true })
	}
}

// forEachNeighbour calls fn with every link conflicting with link i, in
// increasing ID order.
func (g *ConflictGraph) forEachNeighbour(i int, fn func(j int)) {
	for w, word := range g.adjBits[i] {
		for word != 0 {
			fn(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// ConflictMarginDB is the scheduling safety margin: concurrency requires the
// pairwise SINR to clear the decode threshold by this much. The conflict
// graph is pairwise, but a slot may hold several concurrent exchanges whose
// interference adds; the margin absorbs the aggregate of a few comparable
// interferers (3 dB covers two equal ones, and weaker tails).
const ConflictMarginDB = 3

// Rate returns the data rate the graph was computed for.
func (g *ConflictGraph) Rate() phy.Rate { return g.rate }

// Conflicts reports whether links a and b (by ID) may not share a slot.
func (g *ConflictGraph) Conflicts(a, b int) bool {
	return g.adjBits[a][b>>6]&(1<<(uint(b)&63)) != 0
}

// Degree returns the number of links conflicting with link id.
func (g *ConflictGraph) Degree(id int) int {
	d := 0
	for _, word := range g.adjBits[id] {
		d += bits.OnesCount64(word)
	}
	return d
}

// SendersHear reports whether the two links' senders are within carrier-sense
// range of each other (in either direction — carrier sensing is energy
// detection, so the stronger direction governs).
func (g *ConflictGraph) SendersHear(a, b int) bool {
	la, lb := g.Links[a], g.Links[b]
	return g.Net.RSS[la.Sender][lb.Sender] >= g.cfg.CSThreshDBm ||
		g.Net.RSS[lb.Sender][la.Sender] >= g.cfg.CSThreshDBm
}

// Hidden reports whether links a and b form a hidden pair: they conflict but
// their senders cannot sense each other, so DCF collides them.
func (g *ConflictGraph) Hidden(a, b int) bool {
	if a == b || g.Links[a].Shares(g.Links[b]) {
		return false
	}
	return g.Conflicts(a, b) && !g.SendersHear(a, b)
}

// Exposed reports whether links a and b form an exposed pair: they could
// transmit concurrently, but their senders sense each other, so DCF
// serialises them needlessly.
func (g *ConflictGraph) Exposed(a, b int) bool {
	if a == b || g.Links[a].Shares(g.Links[b]) {
		return false
	}
	return !g.Conflicts(a, b) && g.SendersHear(a, b)
}

// CountHiddenExposed tallies hidden and exposed pairs over all unordered link
// pairs, the statistic the paper reports for T(10,2) ("10 hidden link pairs
// and 62 exposed link pairs out of 720 possible link pairs").
func (g *ConflictGraph) CountHiddenExposed() (hidden, exposed, total int) {
	n := len(g.Links)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			total++
			if g.Hidden(i, j) {
				hidden++
			}
			if g.Exposed(i, j) {
				exposed++
			}
		}
	}
	return
}

// TriggerFloorDBm is the weakest RSS at which the server plans a signature
// trigger. The 127-chip Gold correlator works ~21 dB below the data decode
// threshold, but the planner stays conservative and requires the signature to
// arrive above the noise floor with margin.
const TriggerFloorDBm = -90

// CanTriggerNode reports whether link l can trigger node n: the signature
// sent by l's sender or receiver reaches n (paper §3.3 definition).
func (g *ConflictGraph) CanTriggerNode(l *Link, n phy.NodeID) bool {
	if l.Sender == n || l.Receiver == n {
		return true
	}
	return g.Net.RSS[l.Sender][n] >= TriggerFloorDBm ||
		g.Net.RSS[l.Receiver][n] >= TriggerFloorDBm
}

// CanTrigger reports whether link a can trigger link b, i.e. can trigger b's
// sender.
func (g *ConflictGraph) CanTrigger(a, b *Link) bool {
	return g.CanTriggerNode(a, b.Sender)
}

// TriggerSNR returns the better of the two signature paths (sender→n,
// receiver→n) in dB above noise, used to rank candidate triggers ("select one
// node n in si such that n has the highest SNR at l.sender").
func (g *ConflictGraph) TriggerSNR(l *Link, n phy.NodeID) float64 {
	s := g.Net.RSS[l.Sender][n]
	r := g.Net.RSS[l.Receiver][n]
	return math.Max(s, r) - g.cfg.NoiseDBm
}

// APConflict reports whether any link of ap1 conflicts with any link of ap2,
// the condition under which two APs may NOT share an ROP slot (paper §3.3).
func (g *ConflictGraph) APConflict(ap1, ap2 phy.NodeID) bool {
	i, ok1 := g.apIndex[ap1]
	j, ok2 := g.apIndex[ap2]
	if !ok1 || !ok2 {
		return false // an AP with no links conflicts with nothing
	}
	return g.apConflict[i][j]
}

// MaximalIndependentSet greedily grows an independent set containing the seed
// links (which must themselves be independent), considering candidates in the
// given order. It returns link IDs. This implements both the RAND scheduler's
// slot construction and the converter's fake-link maximal cover.
func (g *ConflictGraph) MaximalIndependentSet(seed []int, order []int) []int {
	return g.MaximalIndependentSetInto(nil, nil, seed, order)
}

// MaximalIndependentSetInto is MaximalIndependentSet with caller-provided
// scratch: set receives the result (reset to set[:0]) and blocked must hold
// at least (len(Links)+63)/64 words (nil allocates). The greedy outcome is
// identical to MaximalIndependentSet; the bitset just replaces the
// candidate-vs-set rescan with one word test per candidate.
func (g *ConflictGraph) MaximalIndependentSetInto(set []int, blocked []uint64, seed []int, order []int) []int {
	if blocked == nil {
		blocked = make([]uint64, g.adjWords)
	} else {
		blocked = blocked[:g.adjWords]
		for i := range blocked {
			blocked[i] = 0
		}
	}
	set = append(set[:0], seed...)
	for _, s := range set {
		blocked[s>>6] |= 1 << (uint(s) & 63)
		for w, bits := range g.adjBits[s] {
			blocked[w] |= bits
		}
	}
	for _, cand := range order {
		if blocked[cand>>6]&(1<<(uint(cand)&63)) != 0 {
			continue
		}
		set = append(set, cand)
		blocked[cand>>6] |= 1 << (uint(cand) & 63)
		for w, bits := range g.adjBits[cand] {
			blocked[w] |= bits
		}
	}
	return set
}
