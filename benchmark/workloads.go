package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/spec"
)

// shardWorkers is the worker count of the sharded workload. The benchmark
// targets a 2-CPU host, so it never asks for more.
const shardWorkers = 2

// fig14Placements is the number of feasible T(20,3) placements fig14-udp
// runs, and fig14MaxProbes bounds the search for them. Twelve short runs
// instead of three long ones keep the simulated time and event count of a
// three-placement, 2 s Fig 14, while averaging out how much one placement's
// cost differs from the next: with three placements, bytes/event and
// loop speed varied by about 20% from one workload seed to another.
const (
	fig14Placements = 12
	fig14MaxProbes  = 256
)

// job is one simulation run of a workload: a declarative spec plus a label
// for the report.
type job struct {
	label string
	spec  spec.Spec
}

// jobSet is the input a workload derives from its seed.
type jobSet struct {
	jobs []job
	// placements lists the topology seeds fig14-udp used, in run order, and
	// skipped counts the candidate seeds rejected as infeasible.
	placements []int64
	skipped    int
}

// workload is one closed job the benchmark times: a fixed list of runs,
// executed one after another. README.md records why each was chosen.
type workload struct {
	name string
	jobs func(seed int64) (jobSet, error)
}

var workloads = []workload{
	{
		name: "fig7-saturated",
		jobs: fig7Jobs,
	},
	{
		name: "fig14-udp",
		jobs: fig14Jobs,
	},
	{
		name: "campus1000-sharded",
		jobs: campusJobs,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func fig7Spec(seed int64) spec.Spec {
	return spec.Spec{
		Scheme:   "DOMINO",
		Topology: spec.Topology{Kind: "fig7"},
		Seed:     seed,
		Duration: spec.Duration(60 * sim.Second),
		Warmup:   spec.Duration(sim.Second),
	}
}

func fig7Jobs(seed int64) (jobSet, error) {
	return jobSet{jobs: []job{{label: "DOMINO", spec: fig7Spec(seed)}}}, nil
}

// fig14Spec is one Fig 14 run: a random T(20,3) selection from a 110-node,
// 800 m trace whose placement seed is also the run seed, as exp.Fig14 does.
func fig14Spec(scheme string, placement int64) spec.Spec {
	return spec.Spec{
		Scheme: scheme,
		Topology: spec.Topology{
			Kind: "random", APs: 20, Clients: 3, Nodes: 110, AreaM: 800,
		},
		Seed:     placement,
		Duration: spec.Duration(500 * sim.Millisecond),
		Warmup:   spec.Duration(100 * sim.Millisecond),
		Traffic:  spec.Traffic{Kind: "udp", DownMbps: 10, UpMbps: 10},
	}
}

// fig14Jobs picks the first fig14Placements candidate seeds on which a
// T(20,3) is feasible, in the order exp.Fig14 derives them from its base
// seed, and runs each placement as DCF and then DOMINO.
func fig14Jobs(seed int64) (jobSet, error) {
	var set jobSet
	for probe := 0; len(set.placements) < fig14Placements; probe++ {
		if probe == fig14MaxProbes {
			return set, fmt.Errorf("fig14-udp: only %d feasible T(20,3) placements in %d candidates from seed %d",
				len(set.placements), fig14MaxProbes, seed)
		}
		p := parallel.Seed(seed, probe, parallel.DefaultStride)
		sp := fig14Spec("DCF", p)
		if _, err := sp.Topology.Build(sp.Seed); err != nil {
			set.skipped++
			continue
		}
		set.placements = append(set.placements, p)
		for _, scheme := range []string{"DCF", "DOMINO"} {
			set.jobs = append(set.jobs, job{
				label: fmt.Sprintf("%s@%d", scheme, p),
				spec:  fig14Spec(scheme, p),
			})
		}
	}
	return set, nil
}

// campusSpec is the 1,000-AP grid: 50 buildings × 20 APs × 2 clients. Its
// DOMINO runs use 511-chip signatures: on some seeds three buildings couple
// into one 180-node interference domain, more nodes than the default
// 127-chip code set can address.
func campusSpec(seed int64, workers int) spec.Spec {
	return spec.Spec{
		Scheme:       "DOMINO",
		Topology:     spec.Topology{Kind: "grid", Buildings: 50, APs: 20, Clients: 2},
		Seed:         seed,
		Duration:     spec.Duration(300 * sim.Millisecond),
		Warmup:       spec.Duration(50 * sim.Millisecond),
		Shards:       &workers,
		SchemeConfig: json.RawMessage(`{"SignatureChips": 511}`),
	}
}

func campusJobs(seed int64) (jobSet, error) {
	return jobSet{jobs: []job{{label: "DOMINO", spec: campusSpec(seed, shardWorkers)}}}, nil
}
