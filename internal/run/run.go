// Package run is the run-lifecycle layer: it owns everything between "here
// is a validated spec" and "here is the result" — building the scenario,
// stepping it in bounded slices, pausing between slices, writing
// checkpoints, and restoring a killed run so it produces a byte-identical
// remainder trace.
//
// The one-shot paths (core.RunScenario, shard.Run) stay thin wrappers that
// drive the same instances to completion in one call; this package adds the
// stop-and-go driver the domino-sim daemon (-serve) schedules runs through.
//
// Checkpoints are replay-based. Kernel events hold closures, which cannot
// serialize, so a checkpoint records the run's replay coordinate (events
// fired for a single-engine run, completed step granules for a sharded one) plus
// integrity state — the queue shape, engine counters and metric digests —
// and Restore rebuilds the run from its spec, replays deterministically to
// the coordinate, and verifies the rebuilt state matches before continuing.
// Determinism is what makes this exact: the replayed prefix regenerates the
// checkpoint's trace bytes (discarded against the recorded offset) and the
// remainder comes out byte-identical to an uninterrupted run.
package run

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/spec"
)

// DefaultStepEvents is the single-engine step granularity when the spec's
// run.step_events knob is zero: how many kernel events fire between
// pause/checkpoint opportunities.
const DefaultStepEvents = 65536

// Options carries the host-side concerns a Run does not take from its spec.
type Options struct {
	// Sink receives the run's NDJSON trace chunks (a file, a LiveHub fan-out,
	// or both via MultiSink). Nil disables tracing entirely.
	Sink obs.Sink
}

// Run is one simulation run decomposed into bounded steps. Build with New
// (or Restore), call Step until it reports done, then Finish exactly once.
// Checkpoint may be called between any two steps. Runs are not safe for
// concurrent use; the daemon serializes access per run.
type Run struct {
	sp         spec.Spec
	rc         spec.RunControl
	schemeName string

	inst *core.Instance   // single-engine path (nil when sharded)
	st   *shard.Steppable // sharded path (nil when single-engine)

	duration   sim.Time
	stepEvents uint64

	ndjson  *obs.NDJSON
	counter *countingSink
	metrics *obs.Metrics

	steps    int
	done     bool
	finished bool
	res      core.Result
	rep      *shard.Report
}

// New builds a runnable Run from a validated spec.
func New(sp spec.Spec, opt Options) (*Run, error) {
	return build(sp, opt, 0)
}

// build is the shared constructor: discard > 0 is the restore path, which
// suppresses that many already-emitted trace bytes during replay.
func build(sp spec.Spec, opt Options, discard int64) (*Run, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	rc, err := sp.RunControl()
	if err != nil {
		return nil, err
	}
	sc, err := core.BuildScenario(sp)
	if err != nil {
		return nil, err
	}

	r := &Run{sp: sp, rc: rc, schemeName: sp.Scheme}
	if opt.Sink != nil {
		inner := opt.Sink
		if discard > 0 {
			inner = &skipSink{skip: discard, next: opt.Sink}
		}
		r.counter = &countingSink{next: inner}
		r.ndjson = obs.NewNDJSONTo(r.counter)
		sc.Tracer = r.ndjson
	}
	r.metrics = sc.Metrics

	r.stepEvents = DefaultStepEvents
	if rc.StepEvents > 0 {
		r.stepEvents = uint64(rc.StepEvents)
	}
	r.duration = sc.Duration
	if r.duration == 0 {
		r.duration = 10 * sim.Second // the core/shard normalization default
	}

	if w := sp.ShardWorkers(); w > 0 {
		st, err := shard.New(sc, shard.Options{Workers: w, StepGranule: rc.StepWindow.Time()})
		if err != nil {
			return nil, err
		}
		r.st = st
	} else {
		inst, err := core.NewInstance(sc)
		if err != nil {
			return nil, err
		}
		r.inst = inst
	}
	return r, nil
}

// Step advances the run one bounded slice — step_events kernel events on
// the single-engine path, one step_window granule (the whole run when it is
// zero) on the sharded path — and reports whether the run has reached its
// deadline.
func (r *Run) Step() bool {
	if r.done {
		return true
	}
	if r.st != nil {
		r.done = r.st.StepWindow()
	} else {
		_, r.done = r.inst.Kernel.RunCount(r.duration, r.stepEvents)
	}
	r.steps++
	return r.done
}

// Done reports whether the run has reached its deadline.
func (r *Run) Done() bool { return r.done }

// Steps returns the number of completed Step calls.
func (r *Run) Steps() int { return r.steps }

// Sharded reports which execution path the run uses.
func (r *Run) Sharded() bool { return r.st != nil }

// Duration returns the run's normalized simulated duration.
func (r *Run) Duration() sim.Time { return r.duration }

// Clock returns how far simulated time has advanced — the progress figure
// the daemon's status endpoint reports.
func (r *Run) Clock() sim.Time {
	if r.st != nil {
		return r.st.Clock()
	}
	return r.inst.Kernel.Now()
}

// EventsFired returns the single-engine replay coordinate (0 when sharded).
func (r *Run) EventsFired() uint64 {
	if r.inst != nil {
		return r.inst.Kernel.Fired()
	}
	return 0
}

// TraceBytes returns the trace bytes handed to the sink so far. Call Flush
// (or Checkpoint, which flushes) first for an exact figure.
func (r *Run) TraceBytes() int64 {
	if r.counter == nil {
		return 0
	}
	return r.counter.n
}

// Flush pushes buffered trace bytes to the sink.
func (r *Run) Flush() error {
	if r.ndjson == nil {
		return nil
	}
	return r.ndjson.Flush()
}

// Finish completes the run: closes out the instances, flushes the trace and
// returns the measurements. Call exactly once, after Step reports done.
func (r *Run) Finish() (core.Result, error) {
	if r.finished {
		return r.res, nil
	}
	if !r.done {
		return core.Result{}, fmt.Errorf("run: Finish before the run reached its deadline (clock %v of %v)", r.Clock(), r.duration)
	}
	if r.st != nil {
		res, rep, err := r.st.Finish()
		if err != nil {
			return core.Result{}, err
		}
		r.res, r.rep = res, rep
	} else {
		r.res = r.inst.Finish()
	}
	if err := r.Flush(); err != nil {
		return core.Result{}, fmt.Errorf("run: trace flush: %w", err)
	}
	r.finished = true
	return r.res, nil
}

// Report returns the sharded run's report (nil for single-engine runs or
// before Finish).
func (r *Run) Report() *shard.Report { return r.rep }

// Control returns the decoded run-control knobs.
func (r *Run) Control() spec.RunControl { return r.rc }

// countingSink counts every byte handed downstream — the trace offset a
// checkpoint records (after a flush).
type countingSink struct {
	n    int64
	next obs.Sink
}

func (c *countingSink) WriteChunk(p []byte) error {
	c.n += int64(len(p))
	return c.next.WriteChunk(p)
}

func (c *countingSink) Close() error { return c.next.Close() }

// skipSink discards the first skip bytes and forwards the rest — how a
// restored run suppresses the trace prefix its replay regenerates. Chunk
// boundaries need not line up with the offset: NDJSON output is a plain
// byte stream, so a chunk straddling it is split.
type skipSink struct {
	skip int64
	next obs.Sink
}

func (s *skipSink) WriteChunk(p []byte) error {
	if s.skip > 0 {
		if int64(len(p)) <= s.skip {
			s.skip -= int64(len(p))
			return nil
		}
		p = p[s.skip:]
		s.skip = 0
	}
	return s.next.WriteChunk(p)
}

func (s *skipSink) Close() error { return s.next.Close() }
