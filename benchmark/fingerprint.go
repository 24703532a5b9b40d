package main

import (
	"encoding/binary"
	"hash/fnv"

	"repro/internal/stats"
)

// fingerprint hashes a run's simulated result: per-link delivered packets
// and bytes, drops and delay sums in link order, then the kernel events
// fired. Two runs of the same spec on the same code must agree exactly; a
// host-speed change must leave it unchanged.
func fingerprint(links []stats.LinkStats, events uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(links)))
	for _, l := range links {
		put(uint64(l.DeliveredPkts))
		put(uint64(l.DeliveredB))
		put(uint64(l.DroppedPkts))
		put(uint64(l.DelaySum))
	}
	put(events)
	return h.Sum64()
}

// linkStats copies a collector's per-link tallies in link order.
func linkStats(c *stats.Collector) []stats.LinkStats {
	out := make([]stats.LinkStats, c.NumLinks())
	for id := range out {
		out[id] = c.Link(id)
	}
	return out
}
