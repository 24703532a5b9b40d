package topo

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/phy"
)

// refAdjacency is the pairwise construction NewConflictGraph must match bit
// for bit: every link pair runs the data and ACK SINR tests for both
// endpoints of the other link, converting dBm↔mW per test.
func refAdjacency(g *ConflictGraph) [][]bool {
	breaks := func(interferer, src, dst phy.NodeID) bool {
		if interferer == src || interferer == dst {
			return false
		}
		signal := g.Net.RSS[src][dst]
		interfMw := phy.DBmToMw(g.Net.RSS[interferer][dst]) + phy.DBmToMw(g.cfg.NoiseDBm)
		sinr := signal - phy.MwToDBm(interfMw)
		return sinr < phy.SNRThresholdDB(g.rate)+ConflictMarginDB
	}
	corrupts := func(a, b *Link) bool {
		for _, interferer := range []phy.NodeID{a.Sender, a.Receiver} {
			if breaks(interferer, b.Sender, b.Receiver) || breaks(interferer, b.Receiver, b.Sender) {
				return true
			}
		}
		return false
	}
	n := len(g.Links)
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := g.Links[i], g.Links[j]
			c := a.Shares(b) || corrupts(a, b) || corrupts(b, a)
			adj[i][j], adj[j][i] = c, c
		}
	}
	return adj
}

// checkAgainstReference asserts that g agrees with the pairwise reference on
// every Conflicts entry and on everything derived from the edges.
func checkAgainstReference(t *testing.T, name string, g *ConflictGraph) {
	t.Helper()
	ref := refAdjacency(g)
	n := len(g.Links)
	diff := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if g.Conflicts(i, j) != ref[i][j] {
				if diff < 5 {
					t.Errorf("%s: Conflicts(%v, %v) = %v, reference %v",
						name, g.Links[i], g.Links[j], g.Conflicts(i, j), ref[i][j])
				}
				diff++
			}
		}
	}
	if diff > 0 {
		t.Fatalf("%s: %d of %d Conflicts entries differ", name, diff, n*n)
	}
	for i := 0; i < n; i++ {
		want := 0
		for _, c := range ref[i] {
			if c {
				want++
			}
		}
		if got := g.Degree(i); got != want {
			t.Fatalf("%s: Degree(%d) = %d, reference %d", name, i, got, want)
		}
	}
	apConflict := map[[2]phy.NodeID]bool{}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if ref[i][j] {
				apConflict[[2]phy.NodeID{g.Links[i].AP, g.Links[j].AP}] = true
			}
		}
	}
	for _, a := range g.Net.APs {
		for _, b := range g.Net.APs {
			if got, want := g.APConflict(a, b), apConflict[[2]phy.NodeID{a, b}]; got != want {
				t.Fatalf("%s: APConflict(%d, %d) = %v, reference %v", name, a, b, got, want)
			}
		}
	}
	if got, want := g.Components(), naiveComponents(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Components() = %v, reference %v", name, got, want)
	}
	var hidden, exposed, total int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			total++
			if g.Links[i].Shares(g.Links[j]) {
				continue
			}
			if ref[i][j] && !g.SendersHear(i, j) {
				hidden++
			}
			if !ref[i][j] && g.SendersHear(i, j) {
				exposed++
			}
		}
	}
	h, e, tot := g.CountHiddenExposed()
	if h != hidden || e != exposed || tot != total {
		t.Fatalf("%s: CountHiddenExposed() = %d, %d, %d; reference %d, %d, %d",
			name, h, e, tot, hidden, exposed, total)
	}
}

func newGraph(net *Network, links []*Link) *ConflictGraph {
	return NewConflictGraph(net, links, phy.DefaultConfig(), phy.Rate12)
}

func TestConflictGraphMatchesReferenceFigures(t *testing.T) {
	nets := map[string]*Network{
		"fig1":   Figure1(),
		"fig7":   Figure7(),
		"fig13a": Figure13a(),
		"fig13b": Figure13b(),
		"SC":     TwoPairs(SameContention),
		"HT":     TwoPairs(HiddenTerminals),
		"ET":     TwoPairs(ExposedTerminals),
	}
	for name, net := range nets {
		for _, dir := range []struct {
			name     string
			down, up bool
		}{{"down", true, false}, {"up", false, true}, {"both", true, true}} {
			checkAgainstReference(t, name+"/"+dir.name, newGraph(net, net.BuildLinks(dir.down, dir.up)))
		}
	}
	fig1 := Figure1()
	checkAgainstReference(t, "fig1/flows", newGraph(fig1, Figure1Links(fig1)))
}

func TestConflictGraphMatchesReferenceCampusTrace(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net, err := BuildT(CampusTrace(seed), 10, 2, phy.DefaultConfig(), phy.Rate12, rng)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, fmt.Sprintf("T(10,2) seed %d", seed), newGraph(net, net.BuildLinks(true, true)))
	}
}

// TestConflictGraphMatchesReferenceFig14 runs 20 feasible T(20,3) placements
// of the Fig 14 kind: a continuous RSS matrix with no UnmeasuredDBm entry,
// so every interferer is a measured one.
func TestConflictGraphMatchesReferenceFig14(t *testing.T) {
	found := 0
	for seed := int64(1); found < 20; seed++ {
		if seed > 200 {
			t.Fatalf("only %d feasible T(20,3) placements in 200 seeds", found)
		}
		rng := rand.New(rand.NewSource(seed))
		net, err := BuildT(RandomTrace(seed, 110, 800), 20, 3, phy.DefaultConfig(), phy.Rate12, rng)
		if err != nil {
			continue
		}
		found++
		checkAgainstReference(t, fmt.Sprintf("T(20,3) seed %d", seed), newGraph(net, net.BuildLinks(true, true)))
	}
}

func TestConflictGraphMatchesReferenceGridCampus(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		net := GridCampus(seed, 6, 8, 2)
		checkAgainstReference(t, fmt.Sprintf("grid seed %d", seed), newGraph(net, net.BuildLinks(true, true)))
	}
}

// TestConflictGraphMatchesReferenceDense uses random RSS over a wide range,
// including entries weaker than UnmeasuredDBm but none equal to it.
func TestConflictGraphMatchesReferenceDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const aps, clients = 10, 2
	n := aps * (1 + clients)
	net := &Network{RSS: make([][]float64, n), IsAP: make([]bool, n), APOf: make([]phy.NodeID, n)}
	for i := range net.RSS {
		net.RSS[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := -125 + rng.Float64()*85
			net.RSS[i][j], net.RSS[j][i] = v, v
		}
	}
	for id := 0; id < n; id++ {
		ap := phy.NodeID(id - id%(1+clients))
		net.APOf[id] = ap
		if ap == phy.NodeID(id) {
			net.IsAP[id] = true
			net.APs = append(net.APs, ap)
		}
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, "dense", newGraph(net, net.BuildLinks(true, true)))
}

// TestConflictGraphNoiseBrokenLinks pins the directions that fail against
// noise plus an unmeasured interferer: such a direction is broken by every
// node the map did not measure, which a walk over measured neighbours alone
// would miss. Cells (AP, client): 0 at -60 dBm; 1 at -86 dBm, below
// threshold+margin on the unmeasured level alone; 2 at -83.95 dBm, broken by
// unmeasured interferers but not by cell 3, whose -120 dBm coupling to cell 2
// is measured and weaker than UnmeasuredDBm; 3 at -60 dBm.
func TestConflictGraphNoiseBrokenLinks(t *testing.T) {
	rss := symRSS(8, UnmeasuredDBm,
		rssEntry{0, 1, -60}, rssEntry{2, 3, -86}, rssEntry{4, 5, -83.95}, rssEntry{6, 7, -60},
		rssEntry{4, 6, -120}, rssEntry{4, 7, -120}, rssEntry{5, 6, -120}, rssEntry{5, 7, -120})
	net := pairNetwork(4, rss)
	g := newGraph(net, net.BuildLinks(true, true))
	checkAgainstReference(t, "noise-broken", g)
	cell := func(l *Link) int { return int(l.AP) / 2 }
	for i, li := range g.Links {
		for j, lj := range g.Links {
			if i == j {
				continue
			}
			a, b := cell(li), cell(lj)
			want := a == b || a == 1 || b == 1 ||
				(a == 2 || b == 2) && a != 3 && b != 3
			if got := g.Conflicts(i, j); got != want {
				t.Errorf("Conflicts(%v, %v) = %v, want %v", li, lj, got, want)
			}
		}
	}
}
