package convert

import (
	"math/rand"
	"testing"

	"repro/internal/phy"
	"repro/internal/strict"
	"repro/internal/topo"
)

// TestConvertVerifyProperty fuzzes the pipeline: randomized topologies ×
// every registered scheduler × random backlogs (the fake-cover ablation
// mixed in), with Verify run on every converted plan. The
// invariants must never break.
func TestConvertVerifyProperty(t *testing.T) {
	seeds := int64(10)
	if testing.Short() {
		seeds = 3
	}
	schedulers := strict.SchedulerNames()
	if len(schedulers) < 4 {
		t.Fatalf("registered schedulers = %v, want at least 4", schedulers)
	}
	feasible := 0
	for seed := int64(1); seed <= seeds; seed++ {
		tr := topo.RandomTrace(seed, 40, 800)
		rng := rand.New(rand.NewSource(seed))
		net, err := topo.BuildT(tr, 6, 2, phy.DefaultConfig(), phy.Rate12, rng)
		if err != nil {
			continue // infeasible placement: skip, feasibility tracked below
		}
		feasible++
		g := topo.NewConflictGraph(net, net.BuildLinks(true, true), phy.DefaultConfig(), phy.Rate12)
		for _, name := range schedulers {
			s, err := strict.BuildScheduler(name, g)
			if err != nil {
				t.Fatalf("seed %d: BuildScheduler(%s): %v", seed, name, err)
			}
			c := New(g)
			if seed%3 == 1 {
				c.DisableFakeCover = true
			}
			c.MaxInbound = 1 + int(seed)%2
			for batch := 0; batch < 4; batch++ {
				est := make([]int, len(g.Links))
				for i := range est {
					est[i] = rng.Intn(5) // random backlogs, zeros included
				}
				b := s.Batch(est, 12)
				// Pad with empty slots the way the engine does, so empty
				// relative slots (dead chains under the ablation) are covered.
				for len(b) < 6 {
					b = append(b, strict.Slot{})
				}
				p := c.ConvertPlan(b, net.APs)
				if err := Verify(p); err != nil {
					t.Errorf("seed %d scheduler %s batch %d: %v", seed, name, batch, err)
				}
			}
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible random topology; property never exercised")
	}
}
