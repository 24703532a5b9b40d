package obs

import (
	"testing"
	"time"
)

// spanPath is the engines' trigger hot path (domino.noteTrigger): a
// nil-guarded span allocation plus a chain-depth histogram record. With
// observability off both pointers are nil.
func spanPath(sp *Spans, h *LogHist, depth int64) (span int64) {
	if sp != nil {
		span = sp.Next()
	}
	if h != nil {
		h.Record(depth)
	}
	return span
}

// TestSpanPathZeroAllocs pins the per-trigger observability cost at zero
// allocations, both in the nil state every untraced run executes and with a
// live Spans and LogHist, and LogHist.Record alone across every bucket band.
func TestSpanPathZeroAllocs(t *testing.T) {
	var h LogHist
	i := int64(0)
	if got := testing.AllocsPerRun(1000, func() {
		i++
		h.Record(i * 977 & 0xfffff)
	}); got != 0 {
		t.Errorf("LogHist.Record allocates %v/op, want 0", got)
	}
	for _, c := range []struct {
		name string
		sp   *Spans
		h    *LogHist
	}{
		{"disabled", nil, nil},
		{"live", NewSpans(), &LogHist{}},
	} {
		if got := testing.AllocsPerRun(1000, func() {
			i++
			spanPath(c.sp, c.h, i&63)
		}); got != 0 {
			t.Errorf("%s span path allocates %v/op, want 0", c.name, got)
		}
	}
}

// TestLogHistRecordBudget keeps LogHist.Record, paid at every enqueue,
// dequeue and delivery of a run with metrics on, under 200 ns per sample
// (a few ns on current hardware, so only an algorithmic regression trips it).
// The best of three timed passes discards rounds lost to a busy host; the
// race detector's instrumentation makes the timing meaningless.
func TestLogHistRecordBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("timing budget is meaningless under -race")
	}
	const (
		samples  = 1 << 20
		budgetNs = 200
	)
	var h LogHist
	best := time.Duration(1<<63 - 1)
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		for v := int64(0); v < samples; v++ {
			h.Record(v * 977 & 0xfffff) // cycle every bucket band
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	if h.N() != 3*samples {
		t.Fatalf("recorded %d samples, want %d", h.N(), 3*samples)
	}
	if ns := float64(best.Nanoseconds()) / samples; ns > budgetNs {
		t.Errorf("LogHist.Record costs %.1f ns/op, budget %d ns", ns, budgetNs)
	}
}
