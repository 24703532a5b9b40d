package run_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/spec"
)

func intPtr(n int) *int { return &n }

// singleSpec is a small single-engine scenario with tracing-relevant knobs:
// short duration, metrics on, and a small step granule so runs decompose
// into many checkpointable slices.
func singleSpec(schemeName string) spec.Spec {
	return spec.Spec{
		Scheme:   schemeName,
		Topology: spec.Topology{Kind: "fig1"},
		Seed:     11,
		Duration: spec.Duration(50 * sim.Millisecond),
		Obs:      spec.Obs{Metrics: true},
		Run:      []byte(`{"step_events": 211}`),
	}
}

// shardSpec is a multi-domain scenario: the grid topology partitions into
// several interference domains, exercising the windowed sharded path.
func shardSpec(schemeName string) spec.Spec {
	return spec.Spec{
		Scheme:   schemeName,
		Topology: spec.Topology{Kind: "grid", Buildings: 4, APs: 2, Clients: 2},
		Seed:     3,
		Duration: spec.Duration(20 * sim.Millisecond),
		Shards:   intPtr(3),
		Obs:      spec.Obs{Metrics: true},
		Run:      []byte(`{"step_window": "2ms"}`),
	}
}

// stepAll drives a fresh Run to completion and returns its trace bytes,
// result and step count.
func stepAll(t *testing.T, sp spec.Spec) ([]byte, core.Result, int) {
	t.Helper()
	var buf bytes.Buffer
	r, err := run.New(sp, run.Options{Sink: obs.WriterSink{W: &buf}})
	if err != nil {
		t.Fatal(err)
	}
	for !r.Step() {
	}
	res, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res, r.Steps()
}

// resultsEqual compares the measurement fields a checkpointed run must
// reproduce exactly.
func resultsEqual(a, b core.Result) bool {
	if a.AggregateMbps != b.AggregateMbps || a.MeanDelay != b.MeanDelay ||
		a.Fairness != b.Fairness || a.DataMbps != b.DataMbps {
		return false
	}
	if len(a.PerLinkMbps) != len(b.PerLinkMbps) {
		return false
	}
	for i := range a.PerLinkMbps {
		if a.PerLinkMbps[i] != b.PerLinkMbps[i] {
			return false
		}
	}
	return true
}

// canonicalSchemes returns every registered scheme once (the registry lists
// aliases too; descriptors dedupe them).
func canonicalSchemes() []string {
	seen := map[string]bool{}
	var out []string
	for _, name := range scheme.Names() {
		d, ok := scheme.Lookup(name)
		if !ok || seen[d.Name] {
			continue
		}
		seen[d.Name] = true
		out = append(out, d.Name)
	}
	return out
}

// TestRunMatchesRunScenario pins the thin-wrapper contract: driving a spec
// through the step-by-step lifecycle produces byte-identical traces and
// identical results to the one-shot core.RunScenario path.
func TestRunMatchesRunScenario(t *testing.T) {
	sp := singleSpec("DOMINO")

	sc, err := core.BuildScenario(sp)
	if err != nil {
		t.Fatal(err)
	}
	var refBuf bytes.Buffer
	nd := obs.NewNDJSONTo(obs.WriterSink{W: &refBuf})
	sc.Tracer = nd
	refRes, err := core.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Flush(); err != nil {
		t.Fatal(err)
	}

	gotBytes, gotRes, steps := stepAll(t, sp)
	if steps < 3 {
		t.Fatalf("run took only %d steps; step_events knob not honoured", steps)
	}
	if !bytes.Equal(gotBytes, refBuf.Bytes()) {
		t.Fatalf("stepped trace differs from one-shot trace (%d vs %d bytes)", len(gotBytes), refBuf.Len())
	}
	if !resultsEqual(gotRes, refRes) {
		t.Fatalf("stepped result differs: %+v vs %+v", gotRes, refRes)
	}
}

// TestCheckpointRestoreByteIdentical is the property test: for every
// registered scheme, checkpoint a run at a randomly chosen step, restore
// from the JSON round-tripped document into a fresh sink, and require
// prefix + remainder to be byte-identical to the uninterrupted trace, with
// identical results. Repeated at several random cut points per scheme.
func TestCheckpointRestoreByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, name := range canonicalSchemes() {
		t.Run(name, func(t *testing.T) {
			sp := singleSpec(name)
			full, fullRes, steps := stepAll(t, sp)
			if steps < 2 {
				t.Fatalf("run took only %d steps; cannot checkpoint mid-run", steps)
			}
			for trial := 0; trial < 3; trial++ {
				cut := 1 + rng.Intn(steps-1)
				checkpointAt(t, sp, cut, full, fullRes)
			}
		})
	}
}

// TestCheckpointRestoreSharded runs the same property across a multi-domain
// sharded run: checkpoint at a random window boundary, restore, and require
// the merged trace and result to match the uninterrupted run exactly.
func TestCheckpointRestoreSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, name := range canonicalSchemes() {
		t.Run(name, func(t *testing.T) {
			sp := shardSpec(name)
			full, fullRes, steps := stepAll(t, sp)
			if steps < 2 {
				t.Fatalf("run took only %d windows; cannot checkpoint mid-run", steps)
			}
			cut := 1 + rng.Intn(steps-1)
			checkpointAt(t, sp, cut, full, fullRes)
		})
	}
}

// TestCheckpointRestoreCoupledShard cuts a coupled sharded run — a
// partition whose severed conflict edges leave two domain pairs reading
// coupling digests — at every step_window boundary. The 4 ms granule is not
// a lookahead multiple, so each domain stops inside its step to read its
// digests; the restored run must replay exactly the checkpoint's digest
// count and finish byte-identical to the uninterrupted run.
func TestCheckpointRestoreCoupledShard(t *testing.T) {
	sp := spec.Spec{
		Scheme:   "DOMINO",
		Topology: spec.Topology{Kind: "grid", Buildings: 12, APs: 12, Clients: 2},
		Seed:     3,
		Duration: spec.Duration(20 * sim.Millisecond),
		Shards:   intPtr(2),
		Obs:      spec.Obs{Metrics: true},
		Run:      []byte(`{"step_window": "4ms"}`),
	}
	var full bytes.Buffer
	r, err := run.New(sp, run.Options{Sink: obs.WriterSink{W: &full}})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for !r.Step() {
		cp, err := r.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if cp.Messages <= prev {
			t.Fatalf("step %d: checkpoint records %d digests, not more than the previous step's %d", r.Steps(), cp.Messages, prev)
		}
		prev = cp.Messages
	}
	fullRes, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rep := r.Report(); len(rep.Audits) != 2 || rep.Messages <= prev {
		t.Fatalf("want 2 coupled pairs and digests in the final step: audits %+v, messages %d", rep.Audits, rep.Messages)
	}
	if r.Steps() != 5 {
		t.Fatalf("run took %d steps, want one per 4 ms granule (5)", r.Steps())
	}
	for cut := 1; cut < r.Steps(); cut++ {
		checkpointAt(t, sp, cut, full.Bytes(), fullRes)
	}
}

// checkpointAt runs sp for cut steps, checkpoints, JSON round-trips the
// document, restores, finishes, and compares against the uninterrupted
// trace and result.
func checkpointAt(t *testing.T, sp spec.Spec, cut int, full []byte, fullRes core.Result) {
	t.Helper()
	var prefix bytes.Buffer
	r, err := run.New(sp, run.Options{Sink: obs.WriterSink{W: &prefix}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cut; i++ {
		if r.Step() && i != cut-1 {
			t.Fatalf("cut %d: run finished early at step %d", cut, i+1)
		}
	}
	cp, err := r.Checkpoint()
	if err != nil {
		t.Fatalf("cut %d: %v", cut, err)
	}
	if int64(prefix.Len()) != cp.TraceBytes {
		t.Fatalf("cut %d: sink holds %d bytes, checkpoint records %d", cut, prefix.Len(), cp.TraceBytes)
	}
	doc, err := cp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := run.UnmarshalCheckpoint(doc)
	if err != nil {
		t.Fatal(err)
	}

	var rest bytes.Buffer
	r2, err := run.Restore(cp2, run.Options{Sink: obs.WriterSink{W: &rest}})
	if err != nil {
		t.Fatalf("cut %d: restore: %v", cut, err)
	}
	if r2.Steps() != cut {
		t.Fatalf("cut %d: restored run reports %d steps", cut, r2.Steps())
	}
	for !r2.Step() {
	}
	res, err := r2.Finish()
	if err != nil {
		t.Fatal(err)
	}

	got := append(append([]byte{}, prefix.Bytes()...), rest.Bytes()...)
	if !bytes.Equal(got, full) {
		i := 0
		for i < len(got) && i < len(full) && got[i] == full[i] {
			i++
		}
		t.Fatalf("cut %d: resumed trace diverges from uninterrupted at byte %d (%d vs %d total)", cut, i, len(got), len(full))
	}
	if !resultsEqual(res, fullRes) {
		t.Fatalf("cut %d: resumed result differs: %+v vs %+v", cut, res, fullRes)
	}
}

// TestRestoreRejectsTamperedCheckpoint pins the verification teeth: a
// checkpoint whose recorded engine state does not match what replay
// produces must abort the restore.
func TestRestoreRejectsTamperedCheckpoint(t *testing.T) {
	sp := singleSpec("DOMINO")
	r, err := run.New(sp, run.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r.Step()
	}
	cp, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cp.Kernel.Fired += 1 // claim one more event than actually fired
	if _, err := run.Restore(cp, run.Options{}); err == nil {
		t.Fatal("restore accepted a checkpoint with a wrong fired count")
	}

	cp2, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Engine == nil || cp2.Engine.Counters == nil {
		t.Fatal("DOMINO checkpoint carries no engine counters")
	}
	cp2.Engine.Counters["slots"]++
	if _, err := run.Restore(cp2, run.Options{}); err == nil {
		t.Fatal("restore accepted a checkpoint with tampered engine counters")
	}
}
