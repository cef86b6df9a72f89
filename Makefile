GO ?= go
FUZZTIME ?= 10s

.PHONY: ci build vet test race chaos-smoke fuzz-smoke portfolio-smoke matrix-smoke obs-smoke crash-smoke bench-micro bench-gen bench-campaign bench-telemetry bench-portfolio bench-matrix bench-obs bench-resume bench

ci: build vet race portfolio-smoke matrix-smoke obs-smoke crash-smoke bench-micro bench-gen

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Resilience smoke: the resilience packages under the race detector, plus
# the root chaos campaigns (deterministic fault injection under FailPolicy
# Degrade: golden equality across engines, goroutine-leak check on cancel,
# dead-backend pool rotation).
chaos-smoke:
	$(GO) test -race -count=1 ./internal/resilient ./internal/faultinject ./internal/stage
	$(GO) test -race -count=1 -run 'Chaos|DegradeHealthy|MultiPlatform|CancelDuring' .

# Short coverage-guided fuzzing pass over the four differential oracles
# (CDCL vs brute force, SMT model soundness, bitblast vs evaluator,
# lifter+symexec vs simulator). Each target gets FUZZTIME of wall clock on
# top of replaying the checked-in corpus under internal/oracle/testdata.
fuzz-smoke:
	$(GO) test ./internal/oracle -run '^$$' -fuzz '^FuzzSATOracle$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle -run '^$$' -fuzz '^FuzzSMTModelSoundness$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle -run '^$$' -fuzz '^FuzzBitblastVsEval$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle -run '^$$' -fuzz '^FuzzLifterVsMicro$$' -fuzztime $(FUZZTIME)

# Portfolio smoke: a one-program MLine campaign with racing CDCL workers,
# the shared shape cache and staged parallelism all on, under the race
# detector — the solving stack's full concurrency mix in miniature.
portfolio-smoke:
	$(GO) test -race -count=1 -run TestPortfolioSmokeRace .

# Matrix smoke: the platform-zoo battery under the race detector — a tiny
# 3-platform (a53/a72/m0) campaign checked for golden byte identity,
# staged-vs-monolithic row equality, per-platform log/telemetry records, and
# the cross-platform differential oracle with its injected-bug teeth test.
matrix-smoke:
	$(GO) test -race -count=1 -run 'TestMatrix|TestFormatTableRendersMatrix' .
	$(GO) test -race -count=1 -run 'TestDiffProgramMatrix' ./internal/oracle

# Observatory smoke: the telemetry and analysis packages under the race
# detector (Prometheus renderer, SSE stream, flight recorder, trace diff),
# plus the root end-to-end smoke — a tiny campaign on -debug-addr=:0 whose
# /metrics is scraped and format-checked, one SSE tick read, and one forced
# anomaly capture's bundle verified on disk.
obs-smoke:
	$(GO) test -race -count=1 ./internal/telemetry ./internal/analysis
	$(GO) test -race -count=1 -run 'TestObservatory' .

# Crash-safety smoke: the journal package under the race detector, plus the
# root crash suite — resumed-vs-uninterrupted golden equality on both
# engines (including the Degrade fault-injection profile), fingerprint
# mismatch rejection, graceful drain, and the subprocess SIGKILL/SIGINT
# chaos loop that kills a real journaled campaign at escalating offsets and
# resumes it to byte-identical results.
crash-smoke:
	$(GO) test -race -count=1 ./internal/journal
	$(GO) test -count=1 -run 'TestResume|TestDrain|TestCrash|TestGraceful|TestSecondSignal' .

# Package microbenchmarks at one iteration each, so they keep compiling and
# running: pair-solver construction (BenchmarkBlastPairRelation) and the
# per-query loop (BenchmarkPairQuery) in internal/core, plus any other
# internal package benchmark. Timings here are not gated; run them with a
# real -benchtime (and -count) to compare.
bench-micro:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/...

# Matrix-campaign benchmark: runs the K=3 platform matrix against three
# sequential single-platform campaigns and writes BENCH_matrix.json (wall
# clocks, ratio, per-platform verdict rows). Fails if any per-platform count
# diverges or the batched matrix is not under 0.5x of the sequential wall
# clock (generation runs once instead of K times).
bench-matrix:
	BENCH_MATRIX=1 $(GO) test -run TestWriteBenchMatrix -count=1 -v .

# Portfolio/shape-cache benchmark: runs the MLine campaign in the plain
# incremental, cache-only, portfolio-1/4 and portfolio-4+cache modes and
# writes BENCH_portfolio.json (gen time, per-mode speedups, cache traffic).
# Counts must agree across modes; the wall-clock speedup target applies on
# multi-core runners only (racing needs cores to win).
bench-portfolio:
	BENCH_PORTFOLIO=1 $(GO) test -run TestWriteBenchPortfolio -count=1 -v .

# Generation-throughput benchmark: runs the MLine campaign in incremental
# and legacy solver modes and writes BENCH_gen.json (queries/s, GenTime per
# experiment, speedup). Fails if the incremental solver drops below 2x.
bench-gen:
	BENCH_GEN=1 $(GO) test -run TestWriteBenchGen -count=1 -v .

# Campaign-engine benchmark: runs the MLine campaign (8 programs, parallel 4)
# on the staged and monolithic engines and writes BENCH_campaign.json (wall
# clock, per-stage busy/wait/stall). Fails if counts diverge or GenTime
# regresses; the wall-clock speedup is asserted only on multi-core runners.
bench-campaign:
	BENCH_CAMPAIGN=1 $(GO) test -run TestWriteBenchCampaign -count=1 -v .

# Telemetry-overhead benchmark: runs the MLine campaign with a full JSONL
# tracer attached vs a nil tracer and writes BENCH_telemetry.json (wall
# clock, overhead ratio, trace size). Target is ≤1.05x; fails past the
# 1.25x flake ceiling or if tracing changes any campaign count.
bench-telemetry:
	BENCH_TELEMETRY=1 $(GO) test -run TestWriteBenchTelemetry -count=1 -v .

# Observatory-overhead benchmark: runs the traced MLine campaign with and
# without the full observability plane (debug server, 50ms /metrics scraper,
# 50ms SSE dashboard client, armed flight recorder) and writes
# BENCH_obs.json. Target is ≤1.05x over trace-only; fails past the 1.25x
# flake ceiling or if observation changes any campaign count.
bench-obs:
	BENCH_OBS=1 $(GO) test -run TestWriteBenchObs -count=1 -v .

# Journal-overhead benchmark: runs the MLine campaign with and without the
# write-ahead journal (fsync per program completion, periodic atomic
# checkpoints) and writes BENCH_resume.json. Target is ≤1.05x over plain;
# fails past the 1.25x flake ceiling or if journaling changes any campaign
# count.
bench-resume:
	BENCH_RESUME=1 $(GO) test -run TestWriteBenchResume -count=1 -v .

# Full paper-table benchmark suite (one iteration each).
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .
