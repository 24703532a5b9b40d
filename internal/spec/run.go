package spec

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// RunControl holds the run-lifecycle knobs a spec's "run" object can set:
// how often the executing layer (internal/run, the domino-sim daemon)
// writes checkpoints, how finely a run is sliced into resumable steps, and
// how many runs a daemon executes concurrently. All knobs are
// output-transparent — they bound where a run can pause, never what it
// produces.
type RunControl struct {
	// CheckpointEvery is the wall-clock interval between automatic
	// checkpoints ("30s", "2m", or integer nanoseconds). Zero disables
	// timer checkpoints; explicit checkpoint requests still work.
	CheckpointEvery Duration `json:"checkpoint_every,omitempty"`

	// StepEvents bounds how many kernel events a single-engine run fires
	// per step — the granularity at which pause and checkpoint requests
	// are honoured. Zero means the executor default (65536).
	StepEvents int `json:"step_events,omitempty"`

	// StepWindow bounds how much simulated time a sharded run advances per
	// step (shard.Options.StepGranule), coupled partitions included. Zero
	// means a single leap: the whole run in one step.
	StepWindow Duration `json:"step_window,omitempty"`

	// MaxConcurrentRuns bounds the daemon's worker fleet. Zero means one
	// worker per CPU core. Ignored for one-shot CLI runs.
	MaxConcurrentRuns int `json:"max_concurrent_runs,omitempty"`
}

// RunControl decodes the spec's "run" object, applying zero-value defaults
// for absent fields. Call Validate first: it reports unknown keys and
// out-of-range values with field catalogs; this method only decodes.
func (s Spec) RunControl() (RunControl, error) {
	var rc RunControl
	if len(s.Run) == 0 {
		return rc, nil
	}
	if err := json.Unmarshal(s.Run, &rc); err != nil {
		return rc, fmt.Errorf("spec: run: %v", err)
	}
	return rc, nil
}

// validateRun checks the "run" object the same way scheme_config is
// checked: every key must name a RunControl field (JSON tags,
// case-insensitive), so a typo is a descriptive Validate-time error
// instead of a silently ignored knob; then the decoded values are
// range-checked.
func (s Spec) validateRun() error {
	if len(s.Run) == 0 {
		return nil
	}
	var probe map[string]any
	if err := json.Unmarshal(s.Run, &probe); err != nil {
		return fmt.Errorf("spec: run must be a JSON object: %v", err)
	}
	fields := map[string]string{}
	collectConfigFields(reflect.TypeOf(RunControl{}), fields)
	for k := range probe {
		if _, ok := fields[strings.ToLower(k)]; ok {
			continue
		}
		names := make([]string, 0, len(fields))
		for _, n := range fields {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("spec: run has no knob %q (knobs: %s)", k, strings.Join(names, ", "))
	}
	rc, err := s.RunControl()
	if err != nil {
		return err
	}
	if rc.CheckpointEvery < 0 {
		return fmt.Errorf("spec: run.checkpoint_every %v is negative; use 0 to disable timer checkpoints", rc.CheckpointEvery)
	}
	if rc.StepEvents < 0 {
		return fmt.Errorf("spec: run.step_events %d is negative; use 0 for the executor default", rc.StepEvents)
	}
	if rc.StepWindow < 0 {
		return fmt.Errorf("spec: run.step_window %v is negative; use 0 for single-leap execution", rc.StepWindow)
	}
	if rc.StepWindow > 0 && s.Shards == nil {
		return fmt.Errorf("spec: run.step_window only applies to sharded runs (set shards ≥ 1, or use run.step_events for the single-engine path)")
	}
	if rc.StepEvents > 0 && s.Shards != nil {
		return fmt.Errorf("spec: run.step_events only applies to single-engine runs (sharded runs step by granule; use run.step_window)")
	}
	if rc.MaxConcurrentRuns < 0 {
		return fmt.Errorf("spec: run.max_concurrent_runs %d is negative; use 0 for one worker per core", rc.MaxConcurrentRuns)
	}
	return nil
}
