package main

import (
	"sort"
	"time"
)

// Set-up sampling for setup_s: every pass times one set-up of each job, and
// set-up-only rounds top the samples up to at least minSetupSamples, then
// keep going up to maxSetupSamples while the extra rounds have cost less
// than setupTopUp, so cheap set-ups get a steady median.
const (
	minSetupSamples = 3
	maxSetupSamples = 31
	setupTopUp      = time.Second
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports, in output order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_s_per_wall_s", "s/s"},
	{"wall_s", "s"},
	{"allocs_per_event", "allocs/event"},
	{"bytes_per_event", "B/event"},
	{"setup_heap_mb", "MiB"},
	{"goodput_mbps", "Mbps"},
}

// pass aggregates one execution of every job of a workload, in order.
type pass struct {
	setup, loop, wall time.Duration
	simS              float64
	events            uint64
	mallocs, bytes    uint64
	heapMB            float64 // the largest live heap after any job's set-up
	goodput           float64
	jobs              []jobTiming
	unstolen          float64       // the factor the host times were scaled by
	rawLoop           time.Duration // loop time before scaling
}

// jobTiming is one job's share of a pass, for the report.
type jobTiming struct {
	Label  string  `json:"label"`
	Events uint64  `json:"events"`
	LoopS  float64 `json:"loop_s"`
}

// runPass executes every job once with nothing attached and books each
// run's outcome with v. No run outlives its turn, so every set-up starts
// from the same live heap.
func runPass(set jobSet, v *verifier) (p pass) {
	steal0, t0 := machineSteal(), time.Now()
	defer func() { p.scale(unstolen(steal0, time.Since(t0))) }()
	for _, j := range set.jobs {
		t, o, err := timedRun(j)
		v.record(j.label, o, err)
		p.jobs = append(p.jobs, jobTiming{Label: j.label, Events: o.events, LoopS: t.loop.Seconds()})
		if err != nil {
			continue
		}
		p.setup += t.setup
		p.loop += t.loop
		p.wall += t.setup + t.loop + t.finish
		p.simS += t.simS
		p.events += o.events
		p.mallocs += t.mallocs
		p.bytes += t.bytes
		if t.heapMB > p.heapMB {
			p.heapMB = t.heapMB
		}
		p.goodput += o.res.DataMbps
	}
	return p
}

// scale applies a pass's unstolen share to its host times.
func (p *pass) scale(f float64) {
	p.unstolen = f
	p.rawLoop = p.loop
	p.setup = time.Duration(float64(p.setup) * f)
	p.loop = time.Duration(float64(p.loop) * f)
	p.wall = time.Duration(float64(p.wall) * f)
}

// setupOnly times one set-up of every job and discards the runs.
func setupOnly(set jobSet) (time.Duration, error) {
	var d time.Duration
	steal0, start := machineSteal(), time.Now()
	for _, j := range set.jobs {
		t0 := time.Now()
		_, err := setupRun(j.spec, nil)
		d += time.Since(t0)
		if err != nil {
			return d, err
		}
	}
	return time.Duration(float64(d) * unstolen(steal0, time.Since(start))), nil
}

// measurement is the untraced result of one benchmark run.
type measurement struct {
	passes  []pass
	setups  []float64 // every set-up sample, seconds
	metrics map[string]float64
}

// measure repeats passes until budget has elapsed (at least one), tops
// set-up samples up to minSetupSamples, and reduces each end-to-end metric
// to its median over passes.
func measure(set jobSet, budget time.Duration, v *verifier) measurement {
	var m measurement
	start := time.Now()
	for len(m.passes) == 0 || time.Since(start) < budget {
		p := runPass(set, v)
		m.passes = append(m.passes, p)
		m.setups = append(m.setups, p.setup.Seconds())
		if v.failed > 0 {
			break
		}
	}
	topUp := time.Now()
	for v.failed == 0 && (len(m.setups) < minSetupSamples ||
		len(m.setups) < maxSetupSamples && time.Since(topUp) < setupTopUp) {
		d, err := setupOnly(set)
		if err != nil {
			v.fail("set-up round", err)
			break
		}
		m.setups = append(m.setups, d.Seconds())
	}
	m.metrics = map[string]float64{
		"setup_s": median(m.setups),
		"sim_s_per_wall_s": medianOf(m.passes, func(p pass) float64 {
			return ratio(p.simS, p.loop.Seconds())
		}),
		"wall_s": medianOf(m.passes, func(p pass) float64 { return p.wall.Seconds() }),
		"allocs_per_event": medianOf(m.passes, func(p pass) float64 {
			return ratio(float64(p.mallocs), float64(p.events))
		}),
		"bytes_per_event": medianOf(m.passes, func(p pass) float64 {
			return ratio(float64(p.bytes), float64(p.events))
		}),
		"setup_heap_mb": medianOf(m.passes, func(p pass) float64 { return p.heapMB }),
		"goodput_mbps":  m.passes[0].goodput,
	}
	return m
}

func medianOf(ps []pass, f func(pass) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
