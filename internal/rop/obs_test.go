package rop

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/phy"
)

func TestDecodeObserved(t *testing.T) {
	clients := []phy.NodeID{10, 11, 12}
	rss := func(c phy.NodeID) float64 {
		if c == 12 {
			return -120 // below the SNR floor: report fails
		}
		return -60
	}
	queue := func(c phy.NodeID) int { return int(c) - 9 } // 1, 2, 3
	a := Assign(clients, rss)
	var buf obs.Buffer
	res := DecodeObserved(a, queue, rss, -95, &buf, 42, 7)
	plain := Decode(a, queue, rss, -95)
	if len(res.Values) != len(plain.Values) || len(res.Failed) != len(plain.Failed) {
		t.Fatalf("DecodeObserved result differs from Decode: %+v vs %+v", res, plain)
	}
	recs := buf.Records()
	if len(recs) != len(clients) {
		t.Fatalf("emitted %d records, want one per client (%d)", len(recs), len(clients))
	}
	okCount := 0
	for i, r := range recs {
		if r.Kind != obs.KindROPPoll || r.At != 42 {
			t.Fatalf("record %d = %+v", i, r)
		}
		if r.Node != int(a.Clients[i]) || r.Extra != int64(a.Subchannels[i]) {
			t.Fatalf("record %d order broken: %+v vs client %d sub %d",
				i, r, a.Clients[i], a.Subchannels[i])
		}
		if r.Parent != 7 {
			t.Fatalf("record %d parent = %d, want the poll span 7", i, r.Parent)
		}
		if r.OK {
			okCount++
			if want := int64(plain.Values[a.Clients[i]]); r.Value != want {
				t.Fatalf("record %d backlog = %d, want %d", i, r.Value, want)
			}
		}
	}
	if okCount != 2 {
		t.Fatalf("%d reports decoded, want 2 (node 12 is below the floor)", okCount)
	}
	// Nil tracer emits nothing and matches Decode exactly.
	res2 := DecodeObserved(a, queue, rss, -95, nil, 0, 0)
	if len(res2.Values) != len(plain.Values) {
		t.Fatal("nil-tracer DecodeObserved differs from Decode")
	}
}
