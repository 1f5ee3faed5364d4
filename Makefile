# Build/test tiers and the benchmark runner. Plain GNU make, Go stdlib only.

GO ?= go

.PHONY: tier1 tier2 bench bench-mc race vet obs sparse lifecycle shard shardcrash trace rng tranrecord numerics decode

# Tier 1: the build + vet + test gate every change must keep green
# (ROADMAP.md).
tier1: vet obs sparse lifecycle shard shardcrash trace rng tranrecord numerics decode
	$(GO) build ./... && $(GO) test ./...

# Static analysis alone (also the first rung of tier1).
vet:
	$(GO) vet ./...

# Observability rung: the metrics registry / scope / event layer and the
# zero-overhead guards on the instrumented solver hot path.
obs:
	$(GO) test ./internal/obs/ -count=1
	$(GO) test ./internal/spice/ -run 'TestInstrumented|TestSolverPhase|TestDCRescue' -count=1

# Sparse linear core rung: the symbolic-once sparse LU and the stamp-list
# assembly path, under the race detector (the symbolic object is shared
# per-worker state in pooled Monte Carlo), including the held
# factorization's reuse rule (TestJacobianReuseRule: whenever a circuit
# marks its factorization current, a fresh Jacobian pass under the held
# key reproduces its values bit for bit), and the grouped device
# evaluation against the same mismatched INV, DFF and SRAM runs with every
# device behind a decorator that forwards one evaluation at a time
# (TestGroupedEvaluationMatchesForwarded). Then the Waveforms pin, so that
# a solver change that moves a mismatched INV, DFF or SRAM waveform fails
# here by name.
sparse:
	$(GO) test -race ./internal/linalg/ ./internal/spice/ -count=1
	$(GO) test -count=1 -run 'TestWaveforms' ./internal/experiments/

# Run-lifecycle rung: context cancellation (device-level experiments
# included), per-sample budgets, the hang watchdog, checkpoint/resume, a
# worker state error aborting the run before any sample runs, and the
# pinned experiment config hash that existing checkpoints and journals
# resume under — under the race detector and repeated, because the watchdog
# abandons goroutines and the checkpoint is shared mutable state.
lifecycle:
	$(GO) test -race -count=2 ./internal/lifecycle/
	$(GO) test -race -count=2 -run 'TestMapCtx|TestBudget|TestWatchdog|TestCheckpoint|TestMapPooledStateError' ./internal/montecarlo/
	$(GO) test -race -count=2 -run 'TestArmSample|TestArmed' ./internal/spice/
	$(GO) test -race -count=2 -run 'TestRunPooledMCKillAndResume|TestHangSample|TestConfigHashStable|TestDeviceMCHonoursCtx' ./internal/experiments/

# Sharded-coordinator rung: the coordinator/worker protocol under the race
# detector and repeated — the commit CAS, retry/backoff timers, straggler
# speculation, and worker retirement all race by design — plus the full
# fault-injection matrix (drop/delay/duplicate/corrupt/vanish), the
# bit-identical-merge and cancellation contracts at the engine and
# experiments layers, and the HTTP handler's request-body bound
# (TestHandlerRejectsOversizedBody, run with the package below, plus a
# short fuzz over arbitrary POST bodies).
shard:
	$(GO) vet ./internal/shard/ ./cmd/vsshard/
	$(GO) test -race -short -count=2 ./internal/shard/
	$(GO) test -run xxx -fuzz FuzzShardHandler -fuzztime 10s ./internal/shard/
	$(GO) test -race -count=2 -run 'TestSharded' ./internal/experiments/
	$(GO) test -race -count=2 -run 'TestOffset|TestRecordedFailure|TestSyncDir' ./internal/montecarlo/

# Crash-safety rung: the durable dispatch journal (kill-at-50% resume,
# torn-tail recovery, foreign-run rejection), the streaming constant-memory
# merge and its exact order/partition-invariant accumulator, and the
# drain/fatal error taxonomy — under the race detector, because journal
# appends, the streaming fold, and the live-envelope high-water mark all
# sit inside the commit critical section by design. The 1.2M-sample
# memory-bound acceptance run is excluded here (-short) and runs in the
# plain tier1 `go test ./...` pass instead.
shardcrash:
	$(GO) vet ./internal/shard/ ./internal/montecarlo/ ./cmd/vsshard/
	$(GO) test -race -short -count=2 -run 'TestJournal|TestStreaming|TestFaultCoordKill|TestFaultDrain|TestHTTPEndpoint|TestGate|TestStatsCheck' ./internal/shard/
	$(GO) test -race -count=1 -run 'TestStreamSummary' ./internal/montecarlo/
	$(GO) test -race -count=1 -run 'TestShardedRunJournalResume' ./internal/experiments/

# Distributed-tracing rung: the span/flight-recorder layer under the race
# detector (worker tracers merge into shared worst-K sets), the cross-
# transport trace-stitching and worst-K determinism contracts, and the
# zero-alloc guard pinning that a tracing-disabled armed transient step
# allocates nothing.
trace:
	$(GO) test -race -count=2 ./internal/obs/trace/
	$(GO) test -race -count=1 -run 'TestTrace|TestClassifyVerdict' ./internal/montecarlo/ ./internal/shard/
	$(GO) test -count=1 -run 'TestTracingDisabledArmedStepAllocFree|TestScopeForwardsSolverSpans' ./internal/spice/
	$(GO) test -count=1 -run 'TestPrometheusGolden|TestHelpSurvives' ./internal/obs/

# Per-sample PRNG rung: the lazily seeded source's draw-for-draw identity
# with math/rand (fixed streams plus a short fuzz over seeds, call mixes
# and mid-stream reseeds), its allocation pin, and extraction invariance
# under the concurrent per-polarity nominal fits — under the race detector.
rng:
	$(GO) test -race -count=1 -run 'TestSampleRNG|TestSuiteWorkersInvariant' ./internal/montecarlo/ ./internal/experiments/
	$(GO) test -run xxx -fuzz FuzzSampleSource -fuzztime 10s ./internal/montecarlo/

# Transient-record rung: a transient resumed from a spice.TranRecord equals
# the same transient solved from t = 0 bit for bit (unit cases, a short fuzz
# over random PWL inputs and trial orders, and every setup/hold bisection
# trial of mismatched registers), the record's key and rescue rules, the
# step ledger, the allocation pins, the device bypass's cache lifetime and
# its evaluation ledger (fresh and resumed), and the fast path's setup-time
# accuracy — under the race detector, because pooled workers each own a
# record. The TestSearch cases also hold the setup/hold search, which runs a
# bracket end only when no midpoint decided it, to its bracket-first oracle
# (bound paths, trial errors, rejected Tol and MaxOffset), and a short fuzz
# of FuzzSearch does so over random brackets, tolerances and thresholds.
tranrecord:
	$(GO) test -race -count=1 -run 'TestTranRecord|TestTranStep|TestBypass' ./internal/spice/
	$(GO) test -race -count=1 -run 'TestTrialsMatchFreshRegister|TestSearch' ./internal/measure/
	$(GO) test -race -count=1 -run 'TestPooledFastSetupAccuracy|TestPooledSetupTimeBitIdentical' ./internal/experiments/
	$(GO) test -run xxx -fuzz FuzzTranRecord -fuzztime 10s ./internal/spice/
	$(GO) test -run xxx -fuzz FuzzSearch -fuzztime 10s ./internal/measure/

# Model-numerics rung: the VS series-resistance solve against a bisection
# root (its current within the solve's tolerance, qixo and Fsat at the root,
# Eval equal to EvalDerivs4's values, and the pinned core-evaluation budget),
# the VS core kernel, which interleaves its softplus and Fsat chains and
# runs up to four devices' core evaluations stage by stage beside each
# other, against the serial form bit for bit on every branch, alone and
# beside partners (FuzzCoreOverlap), a bound vsmodel.Instance against its
# card's Eval and EvalDerivs4 bit for bit, alone and in lockstep groups of
# two to four, with each lane's series state and core-evaluation count
# those of the one-device solve the tests keep as the oracle
# (FuzzInstanceMatchesCard), and unchanged by later edits of that card
# (TestBoundInstanceIgnoresCardChanges),
# both models' native Jacobians against central finite differences over
# ±6σ mismatched cards, and the device bypass's first-order bundle against
# a direct evaluation for terminal moves within its 10 nV window, the
# integrators' fitted convergence order on an RC discharge (backward Euler
# 1, trapezoidal 2), Newton's accept of a 2-cycle at the residual's noise
# floor, and the closed-form SNM square against its bisection oracle — the
# seeded cases, then a short fuzz of each target. FuzzSNM caps input
# minimization at 100 runs: one run costs about a millisecond, so the
# default 60 s minimization of each new input would use the whole 10 s.
numerics:
	$(GO) test -count=1 -run 'SeriesSolve|NativeDerivs|CoreOverlap|InstanceMatchesCard|BoundInstance' ./internal/vsmodel/ ./internal/bsim/
	$(GO) test -count=1 -run 'BypassExtrapolation|TestIntegratorConvergenceOrder|TestNewtonNoiseFloorCycle' ./internal/spice/
	$(GO) test -count=1 -run 'SNM' ./internal/measure/
	$(GO) test -run xxx -fuzz FuzzSeriesSolve -fuzztime 10s ./internal/vsmodel/
	$(GO) test -run xxx -fuzz FuzzNativeDerivsFD -fuzztime 10s ./internal/vsmodel/
	$(GO) test -run xxx -fuzz FuzzCoreOverlap -fuzztime 10s ./internal/vsmodel/
	$(GO) test -run xxx -fuzz FuzzInstanceMatchesCard -fuzztime 10s ./internal/vsmodel/
	$(GO) test -run xxx -fuzz FuzzNativeDerivsFD -fuzztime 10s ./internal/bsim/
	$(GO) test -run xxx -fuzz FuzzBypassExtrapolation -fuzztime 10s ./internal/spice/
	$(GO) test -run xxx -fuzz FuzzSNM -fuzztime 10s -fuzzminimizetime 100x ./internal/measure/

# Untrusted-decoder rung: the SPICE-subset netlist parser that
# cmd/spicecli reads decks with returns an error and never panics — its
# error decks and the seeded FuzzParseNetlist cases, then a short fuzz —
# and the shard dispatch journal's decoder (OpenJournal, readRecord,
# Replay), which a resumed coordinator reads its journal with, never panics
# and replays only valid envelopes, the same ones again on reopen: the
# seeded FuzzJournalOpen cases, then a short fuzz. FuzzJournalOpen caps
# input minimization at 100 runs: each run writes, opens and fsyncs a
# journal twice, so the default 60 s minimization of a new input would use
# the whole 10 s.
decode:
	$(GO) test -count=1 -run 'TestParseNetlist|FuzzParseNetlist' ./internal/spice/
	$(GO) test -run xxx -fuzz FuzzParseNetlist -fuzztime 10s ./internal/spice/
	$(GO) test -count=1 -run 'FuzzJournalOpen' ./internal/shard/
	$(GO) test -run xxx -fuzz FuzzJournalOpen -fuzztime 10s -fuzzminimizetime 100x ./internal/shard/

# Tier 2: the race detector over the full tree, including the pooled
# parallel Monte Carlo engine.
tier2: vet
	$(GO) test -race ./...

# Race detector over the concurrency-bearing packages: the Monte Carlo
# engine (failure policies, panic recovery, report aggregation,
# cancellation, the hang watchdog and the checkpoint sink), the solver
# rescue ladder, and the pooled experiment plumbing.
race:
	$(GO) test -race ./internal/montecarlo/ ./internal/spice/ ./internal/obs/ -count=1
	$(GO) test -race ./internal/experiments/ -run 'TestMap|TestPooled|TestFault|TestFail|TestMCRescue|TestRunPooledMC|TestHangSample' -count=1

# Benchmark runner: the paper-figure per-sample benches plus the pooled
# vs rebuild Monte Carlo pairs (the speedup evidence for the pooled engine).
bench:
	$(GO) test -bench=BenchmarkFig5 -benchmem -run xxx .
	$(GO) test -bench=BenchmarkMC -benchmem -run xxx .

# Machine-readable perf record for the MC units; writes BENCH_mc.json.
bench-mc:
	$(GO) run ./cmd/vsbench -n 64 -mode both
