// Command benchmark is the repository's end-to-end benchmark: it runs one
// of three fixed workloads (fig7-saturated, fig14-udp, campus1000-sharded)
// in-process through the public scenario APIs, times set-up and event loop
// from outside, checks every run's simulated output, and prints one JSON
// result line. With --trace 1 it instead makes a separate traced run and
// prints the per-layer ledger. See README.md.
//
// Usage:
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//	benchmark compare OLD.json... vs NEW.json...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// hostFacts stamps a result with the machine shape and build it came from;
// compare refuses to set results from different shapes side by side.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentHost() hostFacts {
	return hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     buildCommit(),
	}
}

// buildCommit returns the VCS revision the binary was built from, with a
// "-dirty" suffix for a modified tree, or "unknown" outside a checkout.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty && rev != "unknown" {
		rev += "-dirty"
	}
	return rev
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the full record of one benchmark run, written with --out and
// read by compare.
type report struct {
	Workload     string               `json:"workload"`
	Seed         int64                `json:"seed"`
	Seconds      int                  `json:"seconds"`
	Trace        bool                 `json:"trace"`
	Host         hostFacts            `json:"host"`
	Placements   []int64              `json:"placements,omitempty"`
	Skipped      int                  `json:"placements_skipped"`
	Passes       int                  `json:"passes,omitempty"`
	SetupSamples []float64            `json:"setup_samples_s,omitempty"`
	Fingerprints map[string]string    `json:"fingerprints"`
	Errors       []string             `json:"errors,omitempty"`
	Result       result               `json:"result"`
	Samples      map[string][]float64 `json:"samples,omitempty"`
	Jobs         [][]jobTiming        `json:"jobs,omitempty"`
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "untraced runs: measurement budget in host seconds (at least one pass always runs)")
	trace := fs.Int("trace", 0, "0: untraced end-to-end metrics; 1: traced per-layer ledger")
	out := fs.String("out", "", "also write the full report as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "benchmark: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	set, err := w.jobs(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	rep := report{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Host: currentHost(), Placements: set.placements, Skipped: set.skipped,
		Fingerprints: map[string]string{},
	}
	v := newVerifier()
	var values map[string]float64
	var defs []metricDef
	if *trace == 1 {
		values, err = traced(w, set, *seed, v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		defs = perLayer
	} else {
		m := measure(set, time.Duration(*seconds)*time.Second, v)
		values, defs = m.metrics, endToEnd
		rep.Passes, rep.SetupSamples = len(m.passes), m.setups
		rep.Samples = map[string][]float64{}
		for _, p := range m.passes {
			rep.Samples["wall_s"] = append(rep.Samples["wall_s"], p.wall.Seconds())
			rep.Samples["loop_s"] = append(rep.Samples["loop_s"], p.loop.Seconds())
			rep.Samples["raw_loop_s"] = append(rep.Samples["raw_loop_s"], p.rawLoop.Seconds())
			rep.Samples["unstolen"] = append(rep.Samples["unstolen"], p.unstolen)
			rep.Jobs = append(rep.Jobs, p.jobs)
		}
	}
	for label, fp := range v.ref {
		rep.Fingerprints[label] = fmt.Sprintf("%016x", fp)
	}
	rep.Errors = v.errs
	rep.Result = result{
		Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed,
		Metrics: map[string]metricValue{},
	}
	for _, d := range defs {
		rep.Result.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
		fmt.Fprintf(stdout, "%-28s %16.6g %s\n", d.name, values[d.name], d.unit)
	}
	for _, e := range v.errs {
		fmt.Fprintf(os.Stderr, "benchmark: output check failed: %s\n", e)
	}
	fmt.Fprintf(stdout, "# %s seed=%d nproc=%d gomaxprocs=%d go=%s commit=%s attempted=%d failed=%d\n",
		w.name, *seed, rep.Host.NProc, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.Commit,
		v.attempted, v.failed)
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Result.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}
