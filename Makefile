# Repo verification and perf-tracking targets. `make ci` is the gate every
# change must pass; the race target is the correctness backstop for the
# parallel experiment harness (internal/parallel and everything fanned out
# through it).

GO ?= go

.PHONY: ci vet fmt specs build test race race-hot race-shard race-serve bench bench-smoke bench-obs bench-kernel bench-shard bench-poll bench-topo bench-phy bench-mac benchreport benchreport-obs benchreport-kernel benchreport-shard benchreport-poll

ci: vet fmt build test specs race race-hot race-shard race-serve bench-smoke bench-obs bench-kernel bench-shard bench-poll bench-topo bench-phy bench-mac

vet:
	$(GO) vet ./...

# gofmt gate: fails listing the unformatted files, fixes nothing.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Validate every example scenario spec (shape, scheme, topology, traffic).
specs:
	$(GO) run ./cmd/speclint examples/specs/*.json

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

# Race re-run of the hot-path packages this PR rewrote: the pooled kernel,
# the planned FFT (shared immutable plans across goroutines) and the obs
# layer. Focused and fast enough to run on every change even when the full
# race sweep would be skipped.
race-hot:
	$(GO) test -race -count=1 ./internal/sim ./internal/ofdm ./internal/obs

# Race re-run of the sharded-runner stack: the shard package (per-domain
# tasks, per-domain coupling-digest tallies), the kernel it drives, and the ForEach
# fan-out underneath. The shard tests cover single-domain transparency,
# multi-domain differentials and worker-count determinism, so -race here
# checks every cross-goroutine edge the sharded runner adds.
race-shard:
	$(GO) test -race -count=1 ./internal/shard ./internal/sim ./internal/parallel

# Race re-run of the run-lifecycle stack: the daemon (worker fleet, HTTP
# handlers, trace streaming, pause/cancel control racing the step loop), the
# checkpoint/restore property tests underneath it, and the dynamic pool. This
# is the domino-simd smoke: every daemon test drives the real HTTP API.
race-serve:
	$(GO) test -race -count=1 ./internal/run ./internal/parallel

# Full benchmark sweep (one iteration per table/figure; laptop-minutes).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# End-to-end benchmark smoke (benchmark/, declared in BENCHMARK.json): one
# pass of every workload with no timing budget, each run's output checked
# and fingerprinted, plus one traced campus1000-sharded run whose 1- vs
# 2-worker fingerprint comparison pins the sharded runner's worker-count
# independence. Fails on any non-zero exit; the timings are not gated here.
bench-smoke:
	for w in fig7-saturated fig14-udp campus1000-sharded; do \
		bash benchmark/run.sh --workload $$w --seconds 0 --trace 0 || exit 1; \
	done
	bash benchmark/run.sh --workload campus1000-sharded --seconds 0 --trace 1

# Observability hot-path benchmarks: the kernel event loop with/without an
# OnEvent hook and the correlator with/without a tracer. Runs as part of ci
# at a short benchtime — the point there is the allocs/op columns (the
# disabled paths must stay at their no-observability counts), not stable
# timings.
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkKernel' -benchmem -benchtime=1000x ./internal/sim
	$(GO) test -run '^$$' -bench 'BenchmarkMetric' -benchmem -benchtime=1000x ./internal/gold
	$(GO) run ./cmd/benchreport -obs -max-hist-ns 200 -out /tmp/BENCH_obs_ci.json

# Event-kernel + ROP FFT gate at a quick configuration: exits non-zero when
# any pooled hot path (kernel At/After/fire, planned FFT256, poll round)
# allocates in steady state. The committed BENCH_kernel.json comes from
# benchreport-kernel below, not from this target.
bench-kernel:
	$(GO) run ./cmd/benchreport -kernel -runs 2 -duration 500ms -out /tmp/BENCH_kernel_ci.json

# Sharded-runner gate at a quick configuration (240-AP campus, 50ms): the
# sweep runs the same scenario at 1/2/4/8 workers and exits non-zero unless
# every point's merged-output hash is identical (the determinism contract —
# always enforced). The -min-speedup 3 gate on the 4-worker point only
# applies on hosts with >=4 CPUs; on smaller machines benchreport prints a
# loud warning and skips it, since no worker count can beat serial there.
# The committed BENCH_shard.json comes from benchreport-shard below.
bench-shard:
	$(GO) run ./cmd/benchreport -shard -shard-buildings 12 -shard-duration 50ms -min-speedup 3 -out /tmp/BENCH_shard_ci.json

# Poller-registry gate: every registered poller's Assign and Poll cycle are
# micro-benchmarked (the point in ci is the allocs column and that every
# poller builds and completes a cycle), and rop.DecodeInto must stay at zero
# allocations with warm scratch — the registry seam is not allowed to put
# allocations on the paper's per-poll hot path. The committed BENCH_poll.json
# comes from benchreport-poll below, not from this target.
bench-poll:
	$(GO) run ./cmd/benchreport -poll -out /tmp/BENCH_poll_ci.json

# Conflict-graph build on the 240- and 1,000-AP grid campus, one iteration
# each. Not a gate: its ns/op and allocs/op columns put a return to the
# pairwise O(links²) build (seconds at 1,000 APs, not milliseconds) in the CI
# output.
bench-topo:
	$(GO) test -run '^$$' -bench 'BenchmarkNewConflictGraph' -benchmem -benchtime=1x ./internal/topo

# PHY medium and MAC queue hot paths: a 40-node broadcast churn through the
# medium and a deep-backlog Push/Pop/PushFront queue cycle. Not a timing gate:
# the allocs/op columns put a return of per-frame or per-retry allocation in
# the CI output. The 0-alloc gates themselves are tests
# (TestQueueSteadyStateAllocs, TestMediumSteadyStateAllocs).
bench-phy:
	$(GO) test -run '^$$' -bench 'BenchmarkMediumBroadcastChurn' -benchmem -benchtime=1000x ./internal/phy
	$(GO) test -run '^$$' -bench 'BenchmarkQueueChurn' -benchmem -benchtime=1000x ./internal/mac

# One simulated second of saturated DCF (two contending pairs) and of DOMINO
# (Fig 7), set-up included. Not a gate: the allocs/op columns put a return
# of per-slot or per-frame allocation in the MAC engines in the CI output.
# The gate is TestDominoSteadyStateAllocs.
bench-mac:
	$(GO) test -run '^$$' -bench 'BenchmarkDCFSecondOfAir' -benchmem -benchtime=5x ./internal/dcf
	$(GO) test -run '^$$' -bench 'BenchmarkDominoSecondOfAir' -benchmem -benchtime=5x ./internal/domino

# Refresh BENCH_parallel.json: harness speedup + correlator hot-path numbers.
benchreport:
	$(GO) run ./cmd/benchreport

# Refresh BENCH_obs.json: tracing-disabled vs -enabled cost on the kernel and
# correlator hot paths, gated against a same-run control (-strict makes a >2%
# disabled-path regression fail the run).
benchreport-obs:
	$(GO) run ./cmd/benchreport -obs

# Refresh BENCH_kernel.json at the same workload BENCH_parallel.json records
# (16 runs x 2s), so fig14_improvement_pct compares like for like.
benchreport-kernel:
	$(GO) run ./cmd/benchreport -kernel

# Refresh BENCH_shard.json: the 1,000-AP grid-campus sweep at 1/2/4/8
# workers with per-point wall clock and output hashes.
benchreport-shard:
	$(GO) run ./cmd/benchreport -shard -min-speedup 3

# Refresh BENCH_poll.json: per-poller assign/decode ns plus the DecodeInto
# zero-alloc gate.
benchreport-poll:
	$(GO) run ./cmd/benchreport -poll
