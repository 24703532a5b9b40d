package topo

import (
	"fmt"
	"testing"

	"repro/internal/phy"
)

// BenchmarkNewConflictGraph builds the campus conflict graph at the sizes
// the sharded runs use: 12 buildings (240 APs, 960 links) and 50 buildings
// (1,000 APs, 4,000 links), 20 APs of 2 clients each, down- and uplinks.
func BenchmarkNewConflictGraph(b *testing.B) {
	for _, buildings := range []int{12, 50} {
		net := GridCampus(1, buildings, 20, 2)
		links := net.BuildLinks(true, true)
		b.Run(fmt.Sprintf("buildings=%d", buildings), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewConflictGraph(net, links, phy.DefaultConfig(), phy.Rate12)
			}
		})
	}
}
