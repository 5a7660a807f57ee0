GO ?= go
GOFMT ?= gofmt

.PHONY: tier1 vet lint escapes allocgate build test race obs-smoke trace-smoke scale-smoke cover bench bench-diff perfbench fidelity-smoke tail-fidelity-smoke clean

# tier1 is the CI gate. Target graph (each arrow is a declared prerequisite,
# so the graph is fail-fast even under `make -j`: nothing downstream of a
# failed build runs, and a serial `make tier1` stops at the first failing
# stage):
#
#   tier1 ─┬─ vet
#          ├─ lint ─→ build   (e2elint resolves imports via build artifacts)
#          ├─ escapes ─→ build (compiler escape analysis over hot paths)
#          ├─ allocgate ─→ build (AllocsPerRun pins for //e2e:hotpath)
#          ├─ build
#          ├─ test ─→ build
#          ├─ race ─→ build
#          ├─ fidelity-smoke ─→ build
#          ├─ tail-fidelity-smoke ─→ build
#          ├─ trace-smoke ─→ build (span plane against a real kvserver)
#          ├─ scale-smoke ─→ build (2k-connection shard-engine fleet)
#          └─ bench-diff ─→ build
#   cover ──→ build           (slow; run on demand, not part of the gate)
#
# race runs the short-mode suite only: full sweeps are skipped under -short
# so the ~10x race overhead stays affordable; the determinism, invariant,
# fuzz-seed and stress tests all still run. fidelity-smoke and bench-diff
# are both short-run-safe: the smoke replays the zoo at a reduced duration,
# and bench-diff degrades to a no-op note until two archives exist.
tier1: vet lint escapes allocgate build test race obs-smoke trace-smoke scale-smoke fidelity-smoke tail-fidelity-smoke bench-diff

vet:
	$(GO) vet ./...

# lint enforces gofmt plus the project's own invariants: the twelve e2elint
# analyzers described in DESIGN.md §8 "Enforced invariants" (the escapes
# analyzer runs under its own target below — it needs the compiler).
# Suppressions require a justified `//lint:ignore e2elint/<name> reason`
# directive.
lint: build
	@drift=$$($(GOFMT) -l .); if [ -n "$$drift" ]; then \
		echo "gofmt drift in:"; echo "$$drift"; exit 1; fi
	$(GO) run ./cmd/e2elint ./...

# escapes is the compiler-backed half of the hot-path allocation discipline
# (DESIGN.md §13): rebuild the packages containing //e2e:hotpath functions
# with -gcflags=-m and fail if any hot function's locals move to the heap.
escapes: build
	$(GO) run ./cmd/e2elint -escapes ./...

# allocgate is the runtime half: testing.AllocsPerRun pins every
# //e2e:hotpath function at 0 allocs/op. The gates are build-tagged !race
# (the race runtime allocates shadow state), so they run here and in plain
# `make test`, not under race.
allocgate: build
	$(GO) test -run AllocGate -count=1 ./internal/...

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race: build
	$(GO) test -short -race ./...

# obs-smoke exercises the telemetry plane end to end against the real
# kvserver binary: spawn with -obs, drive a request over real TCP, scrape
# /metrics and the /debug endpoints, then SIGINT and require exit 0. The
# same test runs inside `make test`; this target reruns it verbosely and
# uncached for a fast standalone check.
obs-smoke: build
	$(GO) test -count=1 -run TestObsSmokeKvserver -v .

# trace-smoke exercises the span tracing plane end to end against the real
# kvserver binary: spawn with -obs -spansample 1, drive requests over real
# TCP, require /debug/spans to serve well-formed JSONL spans covering them
# and /debug/trace a loadable Chrome trace_event document, then SIGINT and
# require exit 0. The same test runs inside `make test`; this target reruns
# it verbosely and uncached.
trace-smoke: build
	$(GO) test -count=1 -run TestTraceSmokeKvserver -v .

# scale-smoke exercises the shared-nothing shard engine at fleet scale: a
# 2000-connection kvload-shaped fleet against an in-process kvserver, every
# connection's control tick and pacing on shard timer wheels, asserting a
# clean run — zero dial errors, zero lost run-queue work, per-shard rollups
# consistent with the report, and the goroutine count back at baseline
# (the per-connection-goroutine regression guard). The same test runs
# inside `make test`; this target reruns it verbosely and uncached.
scale-smoke: build
	$(GO) test -count=1 -run TestScaleSmoke -v .

# cover runs the full suite with statement coverage, prints the per-package
# summary, and enforces floors on the packages whose edge cases the paper's
# correctness rests on: the wrap-aware counter math (qstate), the estimate
# combination (core), the fault-injection subsystem (faults), and the shared
# control loop (engine), plus the decision policies (policy, floored when
# tail-SLO objectives landed), the PR-8 telemetry plane (obs) and its span
# tracing/audit plane (obs/span), the benchmark artifact parser (benchfmt),
# the model-fidelity corpus: the workload zoo (loadgen) and the closed-form
# rival (analytic), and the invariant analyzer suite itself (lint). Floors
# sit a few points under measured coverage at introduction (qstate 98.9%,
# core 92.9%, faults 95.5%, engine 96.1%, obs 89.6%, obs/span 93.4%,
# benchfmt 92.6%, loadgen 96.1%, analytic 96.4%, lint 90.0%, policy 98.7%;
# core re-floored at 90 with the tail-composition coverage) so incidental
# drift passes but a feature landing untested does not.
cover: build
	@$(GO) test -coverprofile=cover.out ./... > cover.txt || { cat cover.txt; rm -f cover.txt cover.out; exit 1; }
	@cat cover.txt
	@$(GO) tool cover -func=cover.out | tail -1
	@awk 'BEGIN { floor["e2ebatch/internal/qstate"]=95; \
		floor["e2ebatch/internal/core"]=90; \
		floor["e2ebatch/internal/policy"]=90; \
		floor["e2ebatch/internal/faults"]=90; \
		floor["e2ebatch/internal/engine"]=92; \
		floor["e2ebatch/internal/obs"]=84; \
		floor["e2ebatch/internal/obs/span"]=88; \
		floor["e2ebatch/internal/lint"]=85; \
		floor["e2ebatch/internal/benchfmt"]=88; \
		floor["e2ebatch/internal/loadgen"]=92; \
		floor["e2ebatch/internal/analytic"]=92 } \
		/^ok/ && /coverage:/ { \
			v=""; for (i=1;i<=NF;i++) if ($$i=="coverage:") { v=$$(i+1); sub("%","",v) } \
			if (($$2 in floor) && v+0 < floor[$$2]) { \
				printf "coverage floor violated: %s at %s%% (floor %d%%)\n", $$2, v, floor[$$2]; bad=1 } \
			delete floor[$$2] } \
		END { for (p in floor) { printf "coverage floor unchecked: %s missing from test output\n", p; bad=1 } \
			exit bad }' cover.txt

# bench regenerates every paper table via the root benchmark harness with
# allocation accounting and archives the result lines as BENCH_<date>.json
# (name, ns/op, B/op, allocs/op plus the custom figure metrics), so the
# perf trajectory is tracked across PRs instead of living in scrollback.
# The live transcript still streams to the terminal; if the test run dies
# early, benchjson sees no result lines and fails the target. A second run
# on the same day suffixes a letter (BENCH_<date>b.json, ...) instead of
# overwriting the committed archive; the suffix sorts after the plain date,
# so bench-diff's two-newest selection stays correct.
bench: build
	@out=BENCH_$$(date +%Y-%m-%d).json; \
	if [ -e "$$out" ]; then \
		for s in b c d e f g h i j k l m n o p q r s t u v w x y z; do \
			cand=BENCH_$$(date +%Y-%m-%d)$$s.json; \
			if [ ! -e "$$cand" ]; then out=$$cand; break; fi; \
		done; \
		if [ -e "$$out" ]; then echo "bench: all archive names for today taken"; exit 1; fi; \
	fi; \
	$(GO) test -run '^$$' -bench . -benchmem . | $(GO) run ./cmd/benchjson -out "$$out"

# bench-diff gates ns/op regressions between the two newest BENCH_<date>.json
# archives (>15% growth on any benchmark fails). With fewer than two archives
# there is nothing to compare — the target notes that and passes, so tier1
# stays green on a fresh checkout with only the committed baseline.
bench-diff: build
	@set -- $$(ls -1 BENCH_*.json 2>/dev/null | sort | tail -2); \
	if [ $$# -lt 2 ]; then \
		echo "bench-diff: $$# BENCH_*.json archive(s) present, need 2; nothing to compare"; \
	else \
		$(GO) run ./cmd/benchjson -compare "$$1" "$$2" -maxregress 15; \
	fi

# perfbench runs the repository benchmark declared in BENCHMARK.json once
# per workload, seed 1: sim-set16k (the simulated testbed, 16 KiB SETs) and
# tcp-getset64 (real sockets over loopback, 64 B GET/SET). Each prints its
# checks and end-to-end metrics as one JSON line; --trace 1 adds the
# per-layer attribution. Wall-clock metrics swing with the host, so compare
# two trees by interleaving their runs, not against a stored number; and at
# about a minute it stays out of tier1.
perfbench:
	bash perfbench/run.sh --workload sim-set16k --seed 1 --seconds 10 --trace 0
	bash perfbench/run.sh --workload tcp-getset64 --seed 1 --seconds 10 --trace 0

# fidelity-smoke replays the whole workload zoo through the model-fidelity
# harness at a reduced duration — a fast end-to-end check that cmd/fidelity
# builds, runs, and scores every workload with all three predictors. The
# full 150 ms report is pinned byte-for-byte by TestFidelityGolden.
fidelity-smoke: build
	$(GO) run ./cmd/fidelity -dur 25ms -seed 2

# tail-fidelity-smoke is the quantile analogue: the same zoo replay scored at
# p50/p90/p99/p999 with v2 (histogram-carrying) metadata exchanges. The full
# 150 ms report is pinned byte-for-byte by TestTailFidelityGolden.
tail-fidelity-smoke: build
	$(GO) run ./cmd/fidelity -tails -dur 25ms -seed 2

clean:
	$(GO) clean ./...
	rm -f cover.out cover.txt
