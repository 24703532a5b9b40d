package exp

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestFig14FPClampsBounded runs DCF and DOMINO for 300 ms on the first two
// feasible Fig 14 T(20,3) placements and records how often the medium's
// floating-point guards fired. A clamp is residue of adding and later
// subtracting the same received powers in another order: it moves a value by
// a few ulps of the largest power summed at that node. A frame end can clamp
// the total and the signature share at each of the ~79 nodes it reached, and
// each reception's first interference level, so the structural ceiling is
// over 200 per transmission. On these placements the measured rates per
// transmission are 0.12–0.14 for DCF (all on the total) and 0.58–1.65 for
// DOMINO (mostly the signature share, and signature receptions that start
// where every audible frame is a signature). The bound is 4 per transmission.
// A total that drifts (each frame end subtracting 1e-12 more than its start
// added) lifts DCF to ~1.3 and DOMINO to ~7 per transmission and breaks it.
func TestFig14FPClampsBounded(t *testing.T) {
	o := small().withDefaults()
	placements := 0
	for run := 0; run < o.Runs && placements < 2; run++ {
		seed := parallel.Seed(o.Seed, run, parallel.DefaultStride)
		tr := topo.RandomTrace(seed, 110, 800)
		net, err := topo.BuildT(tr, 20, 3, phy.DefaultConfig(), phy.Rate12, rand.New(rand.NewSource(seed)))
		if err != nil {
			continue
		}
		placements++
		for _, scheme := range []core.Scheme{core.DCF, core.DOMINO} {
			inst, err := core.NewInstance(core.Scenario{
				Net: net, Downlink: true, Uplink: true, Scheme: scheme,
				Seed: seed, Duration: 300 * sim.Millisecond, Warmup: 100 * sim.Millisecond,
				Traffic: core.UDPCBR, DownMbps: 10, UpMbps: 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			inst.Step(inst.S.Duration)
			inst.Finish()
			m := inst.Medium
			t.Logf("placement seed %d, scheme %d: %d FP clamps in %d transmissions",
				seed, scheme, m.FPClamps, m.Transmissions)
			if m.FPClamps > 4*m.Transmissions {
				t.Errorf("placement seed %d, scheme %d: %d FP clamps in %d transmissions, want at most 4 per transmission",
					seed, scheme, m.FPClamps, m.Transmissions)
			}
		}
	}
	if placements < 2 {
		t.Fatalf("%d feasible Fig 14 placements, want 2", placements)
	}
}
