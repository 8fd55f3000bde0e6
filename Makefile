# Local mirrors of the CI gates (.github/workflows/ci.yml). `make check`
# runs everything CI runs; the narrower targets exist for tight loops.

GO ?= go

# Packages whose concurrency contracts are exercised under the race
# detector (snapshot query path at the facade, Manager two-process
# operation, frozen BDD views, HTTP server, background checkpointer,
# experiment harness workers, pinned verification under rule churn).
RACE_PKGS := . ./internal/aptree ./internal/bdd ./internal/server ./internal/checkpoint ./internal/cluster ./internal/experiments ./internal/lint ./internal/verify

# Packages carrying apdebug-tagged sanitizer tests (post-GC BDD audits,
# AP Tree leaf-partition checks, behavior-cache epoch assertions at the
# facade).
APDEBUG_PKGS := . ./internal/bdd ./internal/aptree

# Benchmarks exercised by bench-smoke: the lock-free snapshot query path,
# serial and parallel, plus the mixed query/update workload. A fixed
# -benchtime keeps the step fast; it is a non-regression smoke (the
# benchmarks must run and the parallel path must stay race-clean), not a
# performance gate — numbers live in EXPERIMENTS.md.
BENCH_SMOKE := ^(BenchmarkManagerClassify|BenchmarkParallelClassify|BenchmarkParallelClassifyWithUpdates|BenchmarkBatchClassify|BenchmarkFlatClassify)$$

# The facade-level batch benchmark (single vs batched pipeline, behavior
# cache on) lives in the root package; bench-smoke runs it at a tiny
# -benchtime for the same non-regression purpose.
BENCH_SMOKE_ROOT := ^BenchmarkBehaviorBatch$$

# bench-churn's -dur (the churn experiment budgets 5×dur per engine):
# long enough that the delta engine's advantage over reconvert+rebuild is
# unambiguous at small scale, short enough for CI.
CHURN_DUR := 60ms

# Coverage floor for the observability layer: metrics and traces are what
# operators debug incidents with, so internal/obs stays near-fully tested.
COVER_PKG   := ./internal/obs
COVER_FLOOR := 90.0
COVER_OUT   := coverage-obs.out

# checkpoint-smoke's scratch directory (wiped and recreated each run).
SMOKE_DIR := /tmp/apc-checkpoint-smoke

# Fuzz targets exercised briefly by fuzz-smoke: the two binary decoders
# that parse untrusted bytes, the flat-vs-pointer differential harness
# (the compiled classify core must answer bit-identically to the pointer
# descent on arbitrary rule sets and packets), and the interval-coded
# AtomSet vs its map-of-IDs model. A short -fuzztime keeps CI fast; long
# runs are for dedicated fuzzing sessions.
FUZZ_TIME ?= 5s

# bench-flat's -dur: long enough for stable per-network Mqps columns at
# small scale, short enough for CI.
FLAT_DUR := 100ms

.PHONY: build test vet lint race apdebug bench-smoke bench-churn bench-flat cover checkpoint-smoke cluster-smoke fuzz-smoke verify-smoke perfbench-test check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis; see "Static analysis & sanitizers" in
# README.md for the checks and the //lint:ignore suppression syntax.
lint:
	$(GO) run ./cmd/aplint ./...

race:
	$(GO) test -race $(RACE_PKGS)

apdebug:
	$(GO) test -tags apdebug $(APDEBUG_PKGS)

bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_SMOKE)' -benchtime 200x -cpu 1,4 ./internal/aptree
	$(GO) test -run '^$$' -bench '$(BENCH_SMOKE_ROOT)' -benchtime 512x .

# Churn smoke: the incremental delta engine's updates/sec-under-query-load
# experiment at small scale. Like bench-smoke it is a non-regression gate
# (the delta engine must run and keep beating reconvert+rebuild — the
# table's speedup column); recorded numbers live in EXPERIMENTS.md.
bench-churn:
	$(GO) run ./cmd/apbench -scale small -run churn -dur $(CHURN_DUR)

# Flat-engine smoke: the compiled array classifier vs the pointer descent
# on both networks at small scale. A non-regression gate (the flat core
# must compile for every dataset and the experiment must run end to end);
# recorded numbers live in EXPERIMENTS.md.
bench-flat:
	$(GO) run ./cmd/apbench -scale small -run flat -dur $(FLAT_DUR)

# Save → restore → verify through the real binaries: apstate writes a
# checkpoint for every generator, then fully decodes and self-checks it.
# This is the end-to-end durability gate (the unit tests cover the codec;
# this covers the shipped tooling).
checkpoint-smoke:
	rm -rf $(SMOKE_DIR) && mkdir -p $(SMOKE_DIR)
	$(GO) run ./cmd/apstate save -net internet2 -scale 0.01 -out $(SMOKE_DIR)/internet2.apc
	$(GO) run ./cmd/apstate save -net stanford -scale 0.003 -out $(SMOKE_DIR)/stanford.apc
	$(GO) run ./cmd/apstate save -net multitenant -out $(SMOKE_DIR)/multitenant.apc
	$(GO) run ./cmd/apstate inspect $(SMOKE_DIR)/internet2.apc
	$(GO) run ./cmd/apstate verify $(SMOKE_DIR)/internet2.apc
	$(GO) run ./cmd/apstate verify $(SMOKE_DIR)/stanford.apc
	$(GO) run ./cmd/apstate verify $(SMOKE_DIR)/multitenant.apc
	rm -rf $(SMOKE_DIR)

# Cluster smoke: the real apserver and aprouter binaries as a 2-shard
# fleet — differential queries against an unsharded oracle, churn fan-out
# through the router, and a SIGTERM restart of one worker with warm
# restore from its final checkpoint. The in-process differential suite
# runs under plain `make test`; this gate covers the process boundary
# (flags, signals, checkpoint files, real sockets).
cluster-smoke:
	$(GO) test ./internal/cluster -run '^TestClusterProcessSmoke$$' -count=1 -v

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime $(FUZZ_TIME) ./internal/bdd
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime $(FUZZ_TIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzFlatVsPointer$$' -fuzztime $(FUZZ_TIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzAtomSet$$' -fuzztime $(FUZZ_TIME) ./internal/predicate

# Verification smoke: apverify's exhaustive sweeps on the small fat-tree
# — loop freedom must hold, the injected loop must be found, and every
# ingress × host pair must be reachable. Covers the CLI surface plus the
# snapshot-native engine end to end; scale numbers live in EXPERIMENTS.md.
verify-smoke:
	$(GO) run ./cmd/apverify loops -net fattree -preset small
	$(GO) run ./cmd/apverify loops -net fattree -preset small -inject-loop | grep VIOLATED
	$(GO) run ./cmd/apverify reach -net fattree -preset small -all
	$(GO) run ./cmd/apverify blackholes -net fattree -preset small -all

# The repository benchmark (perfbench/, a module of its own that builds
# against this checkout) must keep compiling and passing its own tests
# whenever the program's API changes, not only when the benchmark runs.
# Offline by construction: module mode with the proxy off.
perfbench-test:
	cd perfbench && GOFLAGS=-mod=mod GOPROXY=off $(GO) vet ./... && GOFLAGS=-mod=mod GOPROXY=off $(GO) test ./...

cover:
	$(GO) test -coverprofile=$(COVER_OUT) $(COVER_PKG)
	@total=$$($(GO) tool cover -func=$(COVER_OUT) | awk '/^total:/ { gsub("%","",$$3); print $$3 }'); \
	echo "$(COVER_PKG) coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }' || \
		{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

check: build vet test lint race apdebug bench-smoke bench-churn bench-flat checkpoint-smoke cluster-smoke fuzz-smoke verify-smoke perfbench-test cover
	@echo "all gates passed"
