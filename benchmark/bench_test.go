package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

func TestWorkloadSpecsValidate(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{1, 2, 7} {
			set, err := w.jobs(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if len(set.jobs) == 0 {
				t.Fatalf("%s seed %d: no jobs", w.name, seed)
			}
			for _, j := range set.jobs {
				if err := j.spec.Validate(); err != nil {
					t.Errorf("%s seed %d %s: %v", w.name, seed, j.label, err)
				}
			}
		}
	}
}

// TestManifestMatchesProgram keeps BENCHMARK.json and the program in step:
// the same workloads, and the same metric names and units in each mode.
func TestManifestMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("manifest workloads %v, program %v", names, workloadNames())
	}
	for _, c := range []struct {
		mode     string
		manifest []metric
		program  []metricDef
	}{{"end_to_end", m.EndToEnd, endToEnd}, {"per_layer", m.PerLayer, perLayer}} {
		var got, want []string
		for _, x := range c.manifest {
			got = append(got, x.Name+" "+x.Unit)
		}
		for _, x := range c.program {
			want = append(want, x.name+" "+x.unit)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: manifest %v, program %v", c.mode, got, want)
		}
	}
}

func TestFig14PlacementsDeterministic(t *testing.T) {
	a, err := fig14Jobs(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fig14Jobs(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.placements) != fig14Placements || len(a.jobs) != 2*fig14Placements {
		t.Fatalf("got %d placements, %d jobs", len(a.placements), len(a.jobs))
	}
	if !reflect.DeepEqual(a.placements, b.placements) || a.skipped != b.skipped {
		t.Fatalf("same seed, different placements: %v/%d vs %v/%d", a.placements, a.skipped, b.placements, b.skipped)
	}
	for i, j := range a.jobs {
		want := []string{"DCF", "DOMINO"}[i%2]
		if j.spec.Scheme != want || j.spec.Seed != a.placements[i/2] {
			t.Errorf("job %d = %s seed %d, want %s seed %d", i, j.spec.Scheme, j.spec.Seed, want, a.placements[i/2])
		}
	}
}

func TestFingerprintChangesWithOneLink(t *testing.T) {
	links := []stats.LinkStats{
		{DeliveredPkts: 10, DeliveredB: 5120, DroppedPkts: 1, DelaySum: 900},
		{DeliveredPkts: 12, DeliveredB: 6144, DelaySum: 1100},
	}
	base := fingerprint(links, 1000)
	if again := fingerprint(append([]stats.LinkStats(nil), links...), 1000); again != base {
		t.Fatalf("same result hashed to %x and %x", base, again)
	}
	changed := append([]stats.LinkStats(nil), links...)
	changed[1].DeliveredPkts++
	if fingerprint(changed, 1000) == base {
		t.Fatal("fingerprint ignored a change in one link's delivered count")
	}
	if fingerprint(links, 1001) == base {
		t.Fatal("fingerprint ignored the event count")
	}
}

// TestSampledSelfTimeAddsUp runs a synthetic kernel whose events busy-wait
// a known time per source and checks that the sampled self times add up to
// the loop time within selfTimeTolerance, and each source's estimate to
// its known busy time. A host preemption that lands inside one sampled
// interval is scaled by the sampling period, so a miss is retried; a biased
// sampler misses every attempt.
func TestSampledSelfTimeAddsUp(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock sampling is not measurable under the race detector")
	}
	busy := map[sim.Source]time.Duration{
		sim.SrcPHY: 30 * time.Microsecond, sim.SrcMAC: 20 * time.Microsecond, sim.SrcTraffic: 10 * time.Microsecond,
	}
	srcs := []sim.Source{sim.SrcPHY, sim.SrcMAC, sim.SrcTraffic}
	const events = 200 * sampleEvery
	var errs []string
	for attempt := 0; attempt < 3; attempt++ {
		k := sim.New(1)
		rng := rand.New(rand.NewSource(int64(attempt)))
		count := map[sim.Source]uint64{}
		for i := 0; i < events; i++ {
			src := srcs[rng.Intn(len(srcs))]
			count[src]++
			d := busy[src]
			k.At(sim.Time(i), func() { spin(d) }).SetSource(src)
		}
		l := newKernelLedger(nil)
		k.OnEvent(l.hook)
		t0 := time.Now()
		k.Run()
		loop := time.Since(t0).Seconds()
		l.flush()

		errs = errs[:0]
		var sum float64
		for _, src := range srcs {
			if l.events[src] != count[src] {
				t.Fatalf("%v: counted %d events, scheduled %d", src, l.events[src], count[src])
			}
			got := l.selfSeconds(src)
			sum += got
			want := float64(count[src]) * busy[src].Seconds()
			if rel := got/want - 1; rel > 2*selfTimeTolerance || rel < -2*selfTimeTolerance {
				errs = append(errs, "source "+src.String()+" off by "+pct(rel))
			}
		}
		if rel := sum/loop - 1; rel > selfTimeTolerance || rel < -selfTimeTolerance {
			errs = append(errs, "sum off the loop time by "+pct(rel))
		}
		if len(errs) == 0 {
			return
		}
	}
	t.Fatalf("sampled self time: %s", strings.Join(errs, "; "))
}

func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

func pct(x float64) string { return fmt.Sprintf("%+.1f%%", 100*x) }

func TestKernelLedgerDropsBarrierSamples(t *testing.T) {
	l := newKernelLedger(nil)
	for i := uint64(1); i <= 10*sampleEvery; i++ {
		l.hook(sim.EventInfo{Fired: i, Source: sim.SrcMAC})
		if l.open {
			l.drop()
		}
	}
	if l.samples[sim.SrcMAC] != 0 || l.selfSeconds(sim.SrcMAC) != 0 {
		t.Fatalf("dropped samples were booked: %d samples", l.samples[sim.SrcMAC])
	}
	if l.events[sim.SrcMAC] != 10*sampleEvery {
		t.Fatalf("events = %d", l.events[sim.SrcMAC])
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/phy.(*Medium).Transmit":   "phy",
		"repro/internal/topo.NewConflictGraph":    "topo",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"math.Pow":                                  "math",
		"math/rand.(*Rand).Float64":                 "math",
		"main.(*kernelLedger).hook":                 "main",
		"repro/internal/domino.(*apNode).arm.func1": "domino",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseTopShares(t *testing.T) {
	out := []byte(`File: benchmark
Type: cpu
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     500ms 50.00% 50.00%      600ms 60.00%  runtime.mallocgc
     300ms 30.00% 80.00%      300ms 30.00%  repro/internal/phy.(*Medium).judge
     200ms 20.00%   100%      200ms 20.00%  encoding/json.Marshal
`)
	flat, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	s := sharesByPackage(flat)
	if s["runtime"] != 0.5 || s["phy"] != 0.3 || s["other"] != 0.2 || s["sim"] != 0 {
		t.Fatalf("shares = %v", s)
	}
	if len(s) != len(cpuPackages)+1 {
		t.Fatalf("got %d shares, want every package plus other", len(s))
	}
}

func TestCompareRefusesDifferentHosts(t *testing.T) {
	a := report{Workload: "fig7-saturated", Host: hostFacts{NProc: 1, GOMAXPROCS: 1}}
	b := report{Workload: "fig7-saturated", Host: hostFacts{NProc: 2, GOMAXPROCS: 2}}
	var out strings.Builder
	if err := compareReports([]report{a}, []report{b}, &out); err == nil {
		t.Fatal("compared results from different host shapes")
	}
	b.Host = a.Host
	if err := compareReports([]report{a}, []report{b}, &out); err != nil {
		t.Fatalf("same host shape refused: %v", err)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if q := quantile(xs, 0.99); q != 99 {
		t.Errorf("p99 = %v", q)
	}
	if q := quantile(xs, 0.5); q != 50 {
		t.Errorf("p50 = %v", q)
	}
}

// TestTracedRunMatchesUntraced runs a small sharded grid with the ledger's
// hooks on 2 workers: the hooks must not change the simulated result, and
// under -race this covers the ledger's cross-goroutine use (worker-side
// hooks, barrier-side drops).
func TestTracedRunMatchesUntraced(t *testing.T) {
	workers := 2
	sp := campusSpec(3, workers)
	// A 4-building grid of 8 single-client APs whose partition at seed 3
	// severs conflict edges, so the run steps in lookahead windows.
	sp.Topology.Buildings, sp.Topology.APs, sp.Topology.Clients = 4, 8, 1
	sp.Duration, sp.Warmup = spec.Duration(30*sim.Millisecond), spec.Duration(5*sim.Millisecond)
	j := job{label: "grid", spec: sp}

	_, want, err := timedRun(j)
	if err != nil {
		t.Fatal(err)
	}
	l := &ledger{vals: map[string]float64{}}
	got, err := l.tracedRun("test", j)
	if err != nil {
		t.Fatal(err)
	}
	if got.fp != want.fp {
		t.Fatalf("traced fingerprint %016x, untraced %016x", got.fp, want.fp)
	}
	if l.vals["sim.events"] != float64(want.events) {
		t.Errorf("ledger counted %v events, kernels fired %d", l.vals["sim.events"], want.events)
	}
	if l.vals["shard.windows"] == 0 || len(l.windows) == 0 || l.vals["strict.calls"] == 0 {
		t.Errorf("sharded ledger empty: windows %v/%d, strict calls %v",
			l.vals["shard.windows"], len(l.windows), l.vals["strict.calls"])
	}
}
