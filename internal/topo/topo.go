// Package topo describes enterprise WLAN topologies: nodes, AP–client
// associations, the pairwise RSS interference map the DOMINO central server
// maintains, link conflict graphs, and hidden/exposed-terminal
// classification (paper §3, "Identifying hidden and exposed links").
//
// It also provides the topology constructions the evaluation uses: the
// figure-specific networks (Figs 1, 7, 13), a synthetic 40-node two-building
// campus trace standing in for the paper's measurement trace, the T(m,n)
// selection procedure of §4.2.1, and random 800×800 m placements for Fig 14.
package topo

import (
	"fmt"

	"repro/internal/phy"
)

// Point is a 2-D position in metres (used by generated topologies; the
// figure topologies are specified directly as RSS).
type Point struct{ X, Y float64 }

// Network is a set of radios with known pairwise RSS and AP–client
// associations. It is the "central interference map" of paper §3.
type Network struct {
	// RSS[i][j] is the received power (dBm) at j when i transmits.
	RSS [][]float64
	// IsAP flags access points.
	IsAP []bool
	// APOf maps every node to its AP (an AP maps to itself).
	APOf []phy.NodeID
	// APs lists the access points in ID order.
	APs []phy.NodeID
	// Pos holds node positions when the topology was generated from
	// placement; nil for hand-specified RSS.
	Pos []Point
}

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return len(n.RSS) }

// Clients returns the client IDs associated with the given AP.
func (n *Network) Clients(ap phy.NodeID) []phy.NodeID {
	var out []phy.NodeID
	for id, a := range n.APOf {
		if a == ap && !n.IsAP[id] {
			out = append(out, phy.NodeID(id))
		}
	}
	return out
}

// clientsByAP groups the clients by AP in one pass over APOf: entry ap
// holds what Clients(ap) returns, in the same order. Entries for nodes that
// are not APs stay nil, and a client whose APOf is out of range is skipped,
// as Clients would never return it.
func (n *Network) clientsByAP() [][]phy.NodeID {
	out := make([][]phy.NodeID, n.NumNodes())
	for id, ap := range n.APOf {
		if !n.IsAP[id] && ap >= 0 && int(ap) < len(out) {
			out[ap] = append(out[ap], phy.NodeID(id))
		}
	}
	return out
}

// Validate checks structural consistency and returns a descriptive error for
// the first violation found.
func (n *Network) Validate() error {
	N := n.NumNodes()
	if len(n.IsAP) != N || len(n.APOf) != N {
		return fmt.Errorf("topo: field lengths disagree (rss=%d isAP=%d apOf=%d)",
			N, len(n.IsAP), len(n.APOf))
	}
	for i, row := range n.RSS {
		if len(row) != N {
			return fmt.Errorf("topo: rss row %d has %d entries, want %d", i, len(row), N)
		}
	}
	for id := 0; id < N; id++ {
		ap := n.APOf[id]
		if ap < 0 || int(ap) >= N {
			return fmt.Errorf("topo: node %d associated with out-of-range AP %d", id, ap)
		}
		if n.IsAP[id] && ap != phy.NodeID(id) {
			return fmt.Errorf("topo: AP %d not associated with itself", id)
		}
		if !n.IsAP[id] && !n.IsAP[ap] {
			return fmt.Errorf("topo: client %d associated with non-AP %d", id, ap)
		}
	}
	seen := map[phy.NodeID]bool{}
	for _, ap := range n.APs {
		if !n.IsAP[ap] {
			return fmt.Errorf("topo: APs list contains non-AP %d", ap)
		}
		if seen[ap] {
			return fmt.Errorf("topo: duplicate AP %d", ap)
		}
		seen[ap] = true
	}
	for id := 0; id < N; id++ {
		if n.IsAP[id] && !seen[phy.NodeID(id)] {
			return fmt.Errorf("topo: AP %d missing from APs list", id)
		}
	}
	return nil
}

// Link is a directed AP–client transmission opportunity. Exactly one endpoint
// is an AP (paper §3.3: "either l.sender or l.receiver must be an AP").
type Link struct {
	// ID indexes the link within its LinkSet.
	ID       int
	Sender   phy.NodeID
	Receiver phy.NodeID
	// AP is whichever endpoint is the access point.
	AP phy.NodeID
	// Downlink is true for AP→client.
	Downlink bool
}

// String renders the link as "AP3→C7"-style for traces.
func (l *Link) String() string {
	if l.Downlink {
		return fmt.Sprintf("AP%d→C%d", l.Sender, l.Receiver)
	}
	return fmt.Sprintf("C%d→AP%d", l.Sender, l.Receiver)
}

// Shares reports whether the two links have a node in common.
func (l *Link) Shares(o *Link) bool {
	return l.Sender == o.Sender || l.Sender == o.Receiver ||
		l.Receiver == o.Sender || l.Receiver == o.Receiver
}

// BuildLinks creates the link set for the network: a downlink and/or uplink
// per AP–client pair, IDs dense in creation order (downlinks first per pair).
func (n *Network) BuildLinks(downlink, uplink bool) []*Link {
	var links []*Link
	add := func(s, r phy.NodeID, ap phy.NodeID, down bool) {
		links = append(links, &Link{ID: len(links), Sender: s, Receiver: r, AP: ap, Downlink: down})
	}
	clients := n.clientsByAP()
	for _, ap := range n.APs {
		for _, c := range clients[ap] {
			if downlink {
				add(ap, c, ap, true)
			}
			if uplink {
				add(c, ap, ap, false)
			}
		}
	}
	return links
}
