GO ?= go
FUZZTIME ?= 10s

.PHONY: ci fmt build vet test race chaos-smoke fuzz-smoke matrix-smoke obs-smoke crash-smoke bench-micro bench-harness bench log-identity

ci: fmt build vet race matrix-smoke obs-smoke crash-smoke bench-micro bench

# gofmt check over the whole tree, the first target of make ci (and so of the
# GitHub workflow).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:" $$out; exit 1; fi

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
# Degrade: golden equality across repeat runs and Parallel 1 vs 4,
# goroutine-leak check on cancel).
chaos-smoke:
	$(GO) test -race -count=1 ./internal/resilient ./internal/faultinject
	$(GO) test -race -count=1 -run 'Chaos|DegradeHealthy|CancelDuring' .

# Short coverage-guided fuzzing pass over the four differential oracles
# (CDCL vs brute force, SMT model soundness, bitblast vs evaluator,
# lifter+symexec vs simulator). Each target gets FUZZTIME of wall clock on
# top of replaying the checked-in corpus under internal/oracle/testdata.
fuzz-smoke:
	$(GO) test ./internal/oracle -run '^$$' -fuzz '^FuzzSATOracle$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle -run '^$$' -fuzz '^FuzzSMTModelSoundness$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle -run '^$$' -fuzz '^FuzzBitblastVsEval$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle -run '^$$' -fuzz '^FuzzLifterVsMicro$$' -fuzztime $(FUZZTIME)

# Matrix smoke: the platform-zoo battery under the race detector — a tiny
# 3-platform (a53/a72/m0) campaign checked for golden byte identity,
# Parallel 1 vs 4 row equality, per-platform log/telemetry records, the
# same Parallel 1 vs 4 check over a platform of every predictor kind and
# replacement policy (a53, a53-prand, a53-bimodal, a53-gshare, a53-plru,
# a72, m0: the pooled machines' training memo), and the cross-platform
# differential oracle with its injected-bug teeth test.
matrix-smoke:
	$(GO) test -race -count=1 -run 'TestMatrix|TestFormatTableRendersMatrix' .
	$(GO) test -race -count=1 -run 'TestDiffProgramMatrix' ./internal/oracle

# Observatory smoke: the telemetry and analysis packages under the race
# detector (Prometheus renderer, debug endpoint, trace diff), plus the
# root end-to-end smoke — a tiny campaign on -debug-addr=:0 whose /metrics
# is scraped and format-checked and whose /debug/scamv document is read.
obs-smoke:
	$(GO) test -race -count=1 ./internal/telemetry ./internal/analysis
	$(GO) test -race -count=1 -run 'TestObservatory' .

# Crash-safety smoke: the journal package under the race detector, plus the
# root crash suite — resumed-vs-uninterrupted golden equality from the
# journal alone (including the Degrade fault-injection profile),
# fingerprint mismatch rejection, graceful drain, and the subprocess
# SIGKILL/SIGINT chaos loop that kills a real journaled campaign at
# escalating offsets and resumes it to byte-identical results.
crash-smoke:
	$(GO) test -race -count=1 ./internal/journal
	$(GO) test -count=1 -run 'TestResume|TestDrain|TestCrash|TestGraceful|TestSecondSignal' .

# Package microbenchmarks at one iteration each, so they keep compiling and
# running: pair-solver construction (BenchmarkBlastPairRelation), the
# per-query loop (BenchmarkPairQuery) and the pair-solver lifecycle
# (BenchmarkPairSolverLifecycle) in internal/core, the simulated platform's
# call that trains from scratch (BenchmarkExecuteCold) and its whole test
# case, one training and Repeats × 2 measured calls
# (BenchmarkExecuteTestCase), in internal/micro, plus any other internal
# package benchmark. Timings here are not gated; run them with a
# real -benchtime (and -count) to compare.
bench-micro:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/...

# The bench harness: the MLine campaign (8 programs x 40 tests, Parallel 4)
# as six rows (nil, trace, observatory, journaled, a53/a72/m0 matrix, the
# three as sequential campaigns), 7 rounds in rotated order, written to
# BENCH.json with each row's wall-clock and process CPU time median,
# quartiles and min and each A/B's per-round ratios of both against the
# 1.05x target. Fails if tracing, observing or journaling changes a count, a
# matrix row differs from its single-platform campaign, the trace is empty,
# /metrics is never scraped, the journaled row's journal does not restore
# all 8 programs on resume, a median wall-clock overhead ratio reaches
# 1.25x, or the matrix's median wall-clock ratio to the sequential campaigns
# reaches 0.5x. CPU ratios are not gated.
bench-harness:
	BENCH_HARNESS=1 $(GO) test -run TestWriteBench -count=1 -v .

# Full paper-table benchmark suite (one iteration each), part of make ci so
# that the ablation rows' assertions (e.g. no counterexamples on a core
# without speculation or without a prefetcher) keep running.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Output identity against another revision, for changes that must not move
# any result: builds BASE (git archive into a temporary directory) and the
# working tree, runs -exp all -scale 0.06, -exp mct-a -matrix and -exp mpart
# (both -programs 30 -tests 10) at seeds 1-4 with -log and -trace, drops the
# timings (the log's gen_us and exe_us, the trace's ts_us and dur_us), sorts
# the records of each file and fails on any difference. Per seed,
# one journal probe more: each binary runs -exp mpart at 30 x 10 with
# -checkpoint DIR, then -resume DIR -log -trace, which must restore every
# program and generate none (its trace holds no "stage":"proggen" span, which
# a fresh run writes once per program), and the head binary also resumes the
# base binary's DIR; all three resumed logs must equal the base's plain -exp
# mpart log. Takes
# about a minute on two CPUs; not part of ci. Usage: make log-identity
# BASE=<rev>
log-identity:
	@test -n "$(BASE)" || { echo "usage: make log-identity BASE=<rev>"; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/src"; git archive "$(BASE)" | tar -x -C "$$tmp/src"; \
	(cd "$$tmp/src" && $(GO) build -o "$$tmp/scamv-base" ./cmd/scamv); \
	$(GO) build -o "$$tmp/scamv-head" ./cmd/scamv; \
	fail=0; \
	for seed in 1 2 3 4; do \
	  for probe in "-exp all -scale 0.06" "-exp mct-a -matrix -programs 30 -tests 10" "-exp mpart -programs 30 -tests 10"; do \
	    for side in base head; do \
	      "$$tmp/scamv-$$side" $$probe -seed $$seed -log "$$tmp/$$side.jsonl" -trace "$$tmp/$$side-trace.jsonl" >/dev/null; \
	      sed -E 's/"(gen_us|exe_us)":[^,}]*,?//g' "$$tmp/$$side.jsonl" | sort >"$$tmp/$$side-log.txt"; \
	      sed -E 's/,"(ts_us|dur_us)":[0-9]+//g' "$$tmp/$$side-trace.jsonl" | sort >"$$tmp/$$side-trace.txt"; \
	      rm "$$tmp/$$side.jsonl" "$$tmp/$$side-trace.jsonl"; \
	    done; \
	    for kind in log trace; do \
	      if cmp -s "$$tmp/base-$$kind.txt" "$$tmp/head-$$kind.txt"; then \
	        echo "same: seed $$seed $$probe ($$kind), $$(wc -l <"$$tmp/head-$$kind.txt") records"; \
	      else \
	        echo "DIFFERS: seed $$seed $$probe ($$kind)"; diff "$$tmp/base-$$kind.txt" "$$tmp/head-$$kind.txt" | head -n 6; fail=1; \
	      fi; \
	    done; \
	  done; \
	  jprobe="-exp mpart -programs 30 -tests 10 -seed $$seed"; \
	  rm -rf "$$tmp/j-base" "$$tmp/j-head"; \
	  for side in base head; do \
	    "$$tmp/scamv-$$side" $$jprobe -checkpoint "$$tmp/j-$$side" >/dev/null; \
	  done; \
	  "$$tmp/scamv-base" $$jprobe -log "$$tmp/plain.jsonl" >/dev/null; \
	  same=1; \
	  for run in base:base head:head head:base; do \
	    bin=$${run%%:*}; dir=$${run#*:}; \
	    "$$tmp/scamv-$$bin" $$jprobe -resume "$$tmp/j-$$dir" -log "$$tmp/resumed.jsonl" -trace "$$tmp/resumed-trace.jsonl" >/dev/null; \
	    if grep -q '"stage":"proggen"' "$$tmp/resumed-trace.jsonl"; then \
	      echo "DIFFERS: seed $$seed journal probe, $$bin binary resuming $$dir's journal generated programs"; same=0; fail=1; \
	    fi; \
	    rm "$$tmp/resumed-trace.jsonl"; \
	    for f in plain resumed; do \
	      sed -E 's/"(gen_us|exe_us)":[^,}]*,?//g' "$$tmp/$$f.jsonl" | sort >"$$tmp/$$f.txt"; \
	    done; \
	    rm "$$tmp/resumed.jsonl"; \
	    if ! cmp -s "$$tmp/plain.txt" "$$tmp/resumed.txt"; then \
	      echo "DIFFERS: seed $$seed journal probe, $$bin binary resuming $$dir's journal"; \
	      diff "$$tmp/plain.txt" "$$tmp/resumed.txt" | head -n 6; same=0; fail=1; \
	    fi; \
	  done; \
	  rm "$$tmp/plain.jsonl"; \
	  if [ $$same = 1 ]; then \
	    echo "same: seed $$seed journal probe $$jprobe, 3 resumes, $$(wc -l <"$$tmp/plain.txt") records"; \
	  fi; \
	done; \
	exit $$fail
