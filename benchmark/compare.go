package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareMain sets two groups of reports (written with --out) side by side:
//
//	benchmark compare OLD.json... vs NEW.json...
//
// It prints each metric's median per group and the relative change, and
// refuses (exit 2) when the groups mix workloads, trace modes, or host
// shapes: results from machines with a different nproc or GOMAXPROCS are
// not comparable.
func compareMain(args []string, stdout io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "vs" {
			split = i
		}
	}
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare OLD.json... vs NEW.json...")
		return 2
	}
	old, err := loadReports(args[:split])
	if err == nil {
		var cur []report
		cur, err = loadReports(args[split+1:])
		if err == nil {
			err = compareReports(old, cur, stdout)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark compare: %v\n", err)
		return 2
	}
	return 0
}

func loadReports(paths []string) ([]report, error) {
	reps := make([]report, 0, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// compareReports checks that every report shares the first one's workload,
// trace mode and host shape, then prints per-metric medians and changes.
func compareReports(old, cur []report, w io.Writer) error {
	ref := old[0]
	for _, r := range append(append([]report(nil), old...), cur...) {
		if r.Workload != ref.Workload || r.Trace != ref.Trace {
			return fmt.Errorf("reports mix %s/trace=%v with %s/trace=%v", ref.Workload, ref.Trace, r.Workload, r.Trace)
		}
		if r.Host.NProc != ref.Host.NProc || r.Host.GOMAXPROCS != ref.Host.GOMAXPROCS {
			return fmt.Errorf("host shapes differ: nproc=%d gomaxprocs=%d vs nproc=%d gomaxprocs=%d; timings from different machines are not comparable",
				ref.Host.NProc, ref.Host.GOMAXPROCS, r.Host.NProc, r.Host.GOMAXPROCS)
		}
	}
	oldM, curM := groupMetrics(old), groupMetrics(cur)
	names := make([]string, 0, len(oldM))
	for n := range oldM {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s (trace=%v), %d vs %d runs, nproc=%d gomaxprocs=%d\n",
		ref.Workload, ref.Trace, len(old), len(cur), ref.Host.NProc, ref.Host.GOMAXPROCS)
	fmt.Fprintf(w, "%-28s %14s %14s %9s\n", "metric", "old median", "new median", "change")
	for _, n := range names {
		a, b := median(oldM[n]), median(curM[n])
		fmt.Fprintf(w, "%-28s %14.6g %14.6g %+8.2f%%\n", n, a, b, 100*ratio(b-a, a))
	}
	return nil
}

func groupMetrics(reps []report) map[string][]float64 {
	m := map[string][]float64{}
	for _, r := range reps {
		for n, v := range r.Result.Metrics {
			m[n] = append(m[n], v.Value)
		}
	}
	return m
}
