package exp

// Differential goldens for the schedule-conversion settings: the DOMINO
// goldens from spec_diff_test.go are re-run with convert.Verify on and off.
// Verification only reads the converted plan, so both settings must
// reproduce the same SHA-256 trace hashes and aggregates.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/domino"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/topo"
)

// convertModes lists the conversion settings that must leave the schedule
// untouched.
var convertModes = []struct {
	name   string
	verify bool
}{
	{"verify", true},
	{"no-verify", false},
}

func TestDominoGoldenAcrossConvertModes(t *testing.T) {
	if testing.Short() {
		t.Skip("four traced 300 ms runs")
	}
	g := singleRunGoldens[2] // DOMINO
	if g.scheme != "DOMINO" {
		t.Fatalf("golden table reordered: got %s at index 2", g.scheme)
	}

	for _, mode := range convertModes {
		mode := mode
		tune := func(c *domino.Config) { c.VerifyConvert = mode.verify }
		t.Run(mode.name, func(t *testing.T) {
			// Legacy path: programmatic Scenario with the typed tune hook.
			var buf bytes.Buffer
			nd := obs.NewNDJSON(&buf)
			res := core.Run(core.Scenario{
				Net:      topo.Figure7(),
				Downlink: true,
				Uplink:   true,
				Scheme:   core.DOMINO,
				Seed:     g.seed,
				Duration: 300 * sim.Millisecond,
				Traffic:  core.Saturated,
				Tracer:   nd,

				TuneDomino: tune,
			})
			if err := nd.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := sha(buf.Bytes()); got != g.traceSHA {
				t.Errorf("legacy trace hash %s != golden %s", got, g.traceSHA)
			}
			if got := fmt.Sprintf("%.6f", res.AggregateMbps); got != g.aggregate {
				t.Errorf("legacy aggregate %s != golden %s", got, g.aggregate)
			}

			// Spec path: BuildScenario + RunScenario with the same tune hook.
			sc, err := core.BuildScenario(spec.Spec{
				Scheme:   g.scheme,
				Topology: spec.Topology{Kind: "fig7"},
				Seed:     g.seed,
				Duration: spec.Duration(300 * sim.Millisecond),
			})
			if err != nil {
				t.Fatal(err)
			}
			sc.TuneDomino = tune
			var buf2 bytes.Buffer
			nd2 := obs.NewNDJSON(&buf2)
			sc.Tracer = nd2
			res2, err := core.RunScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			if err := nd2.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := sha(buf2.Bytes()); got != g.traceSHA {
				t.Errorf("spec trace hash %s != golden %s", got, g.traceSHA)
			}
			if got := fmt.Sprintf("%.6f", res2.AggregateMbps); got != g.aggregate {
				t.Errorf("spec aggregate %s != golden %s", got, g.aggregate)
			}
		})
	}
}

// TestFig14GoldenAcrossConvertModes pins the experiment-harness output in
// every conversion mode: the same merged NDJSON trace and gain-CDF CSV as
// the goldens in TestFig14MatchesPreRefactorGolden.
func TestFig14GoldenAcrossConvertModes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run traced Fig 14 × 2 modes")
	}
	const (
		goldenTraceSHA = "b023fc31fb52f70519c90db5b9872f37e191c3f29a1c6c9d409056ddaba4f9c8"
		goldenCSVSHA   = "24b473bfabef37b040796678a1621ec2593e47c4942780c40424f3703bf3de72"
	)
	for _, mode := range convertModes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			var trace bytes.Buffer
			o := fig14TraceOpts(1)
			o.TraceSink = &trace
			o.TuneDomino = func(c *domino.Config) { c.VerifyConvert = mode.verify }
			r := must(Fig14(o))
			if got := sha(trace.Bytes()); got != goldenTraceSHA {
				t.Errorf("Fig 14 trace hash %s != golden %s (%d bytes)",
					got, goldenTraceSHA, trace.Len())
			}
			var csv bytes.Buffer
			if err := r.CSV(&csv); err != nil {
				t.Fatal(err)
			}
			if got := sha(csv.Bytes()); got != goldenCSVSHA {
				t.Errorf("Fig 14 CSV hash %s != golden %s", got, goldenCSVSHA)
			}
		})
	}
}
