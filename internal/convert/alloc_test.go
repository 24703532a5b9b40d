package convert

import "testing"

// TestConvertPlanAllocsPerSlot is the conversion allocation gate: converting
// one steady-state saturated Fig 7 batch may allocate a bounded number of
// times per slot, however many triggers the batch wires. The bound follows
// from the layout:
//   - per slot, one Entries array;
//   - per slot pair (the boundary pair included), one TriggeredBy slab, one
//     Broadcasts array and one Targets slab;
//   - per ROP slot, one ROPAfter list plus the poll trigger's growth of a
//     Broadcasts array and a Targets slice;
//   - per batch, the Plan and its Slots array, with slack for two more.
func TestConvertPlanAllocsPerSlot(t *testing.T) {
	const (
		perSlot    = 1 + 3
		perROPSlot = 3
		perBatch   = 4
	)
	g := fig7Graph(t, true, true)
	batch := saturatedBatch(g, 24) // the engine's default batch size
	c := New(g)
	for i := 0; i < 3; i++ { // build the tables and retain a last slot
		c.ConvertPlan(batch, g.Net.APs)
	}
	st := c.ConvertPlan(batch, g.Net.APs).Stats
	if st.Triggers <= st.Slots {
		t.Fatalf("%d triggers over %d slots: the batch does not tell per-trigger from per-slot allocation",
			st.Triggers, st.Slots)
	}
	ceiling := perSlot*st.Slots + perROPSlot*st.ROPSlots + perBatch
	got := testing.AllocsPerRun(20, func() { c.ConvertPlan(batch, g.Net.APs) })
	if got > float64(ceiling) {
		t.Errorf("ConvertPlan allocated %.0f times per batch, ceiling %d (%d slots, %d ROP slots, %d triggers)",
			got, ceiling, st.Slots, st.ROPSlots, st.Triggers)
	}
}
