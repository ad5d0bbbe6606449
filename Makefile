# Development targets for the tbtso reproduction.

GO ?= go

.PHONY: all build vet lint verify verify-cex test race check bench bench-guard bench-compare mc-bench sim-bench fuzz-smoke obs-smoke obs-report interrupt-smoke figures figures-quick demos loc clean

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static checks: gofmt, go vet, one random source (non-test code
# outside the benchmark module draws from math/rand/v2, never
# math/rand), and the repository's own fence-discipline and
# shared-memory-escape analyzer (see docs/ANALYSIS.md).
lint: vet
	test -z "$$(gofmt -l .)"
	@! grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark '"math/rand"' . || \
		{ echo 'lint: the files above import math/rand; use math/rand/v2'; exit 1; }
	$(GO) run ./cmd/tbtso-lint ./...

# Δ-bound certification: extract the //tbtso:verify-annotated protocol
# pairs, model-check them across the Δ sweep, and diff the verdicts
# against the committed certificates in certs/ (see docs/VERIFY.md).
# After an intended protocol change: go run ./cmd/tbtso-verify -update
verify:
	$(GO) run ./cmd/tbtso-verify ./...

# Counterexample gate: regenerate every certificate artifact into a
# scratch directory inside the module and byte-compare every file it
# writes (certificates, counterexamples and their Perfetto traces) with
# certs/ (verify compares only certificates, with state counts
# normalized away), then replay each committed counterexample against
# the current source, and require that replaying a certificate, which
# is not a counterexample, exits 2 (the replays run a built binary:
# `go run` reports every failure as 1).
CEX_DIR := .verify-cex
verify-cex:
	rm -rf $(CEX_DIR)
	$(GO) run ./cmd/tbtso-verify -update -certdir $(CEX_DIR) ./... > /dev/null
	status=0; \
	for f in certs/*.json $(CEX_DIR)/*.json; do \
		n=$$(basename $$f); cmp certs/$$n $(CEX_DIR)/$$n || status=1; \
	done; \
	rm -rf $(CEX_DIR); exit $$status
	mkdir -p $(CEX_DIR) && $(GO) build -o $(CEX_DIR)/tbtso-verify ./cmd/tbtso-verify
	for f in certs/*.cex.json; do $(CEX_DIR)/tbtso-verify -replay $$f || exit 1; done
	status=0; $(CEX_DIR)/tbtso-verify -replay certs/ffhp.json || status=$$?; rm -rf $(CEX_DIR); \
	test $$status -eq 2 || { echo "verify-cex: -replay of a certificate exited $$status, want 2"; exit 1; }

test:
	$(GO) test ./...

# Race-test the whole module twice: the parallel explorer, the clocked
# machine and the fuzz harness all run goroutine fleets.
race:
	$(GO) test -race -count=2 ./...

# The full local gate. CI runs the same targets, each once, split
# across its check (build lint test race) and verify (verify
# verify-cex) jobs.
check: build lint test race verify verify-cex

# testing.B versions of every figure + micro/ablation benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# Compile-rot guard: build and link every benchmark and run each once.
# Benchmarks are not compiled by `go test` runs, so without this a
# refactor can silently break them.
bench-guard:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Model-checker baseline gate: a fresh -figure mc run against the
# committed BENCH_mc.json. Outcome counts must match exactly, any
# growth in a state count fails, and wall time is checked loosely
# (10×: hosts vary). CI runs the same target.
MC_FRESH := .bench-mc.json
bench-compare:
	$(GO) run ./cmd/tbtso-bench -figure mc -json > $(MC_FRESH)
	status=0; $(GO) run ./cmd/tbtso-bench -compare.states 1.0 -compare.time 10 -compare BENCH_mc.json $(MC_FRESH) || status=$$?; \
	rm -f $(MC_FRESH); exit $$status

# Observability smoke: a short monitored litmus sweep with the live ops
# endpoint up (the Prometheus scrape must show zero Δ-residency
# violations), then a monitored fuzz campaign with /coverage scraped
# mid-flight and its artifacts aggregated by tbtso-obs
# (docs/OBSERVABILITY.md). CI runs the same sequence.
obs-smoke:
	./scripts/obs-smoke.sh

# Aggregation smoke: two short campaigns merged by tbtso-obs into one
# report — totals must cover both runs, and the report must -compare
# clean against its own bytes (docs/OBSERVABILITY.md).
obs-report:
	./scripts/obs-report.sh

# Interruption smoke: SIGINT a live checkpointed fuzz campaign and a
# lingering ops endpoint; graceful drain, resumable checkpoint,
# byte-identical resume, cancellable linger (docs/ROBUSTNESS.md). CI
# runs the same sequence.
interrupt-smoke:
	./scripts/interrupt-smoke.sh

# Model-checker explorer smoke benchmarks: one iteration of each
# engine/program/Δ cell (sequential vs parallel vs reductions-off).
# The committed baseline is BENCH_mc.json (tbtso-bench -figure mc -json).
mc-bench:
	$(GO) test -run '^$$' -bench BenchmarkExplore -benchtime=1x ./internal/mc

# Machine execution-engine smoke benchmarks: direct vs goroutine
# engine and campaign worker scaling, one iteration each (docs/PERF.md).
sim-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkEngine|BenchmarkCampaignWorkers' -benchtime=1x ./internal/bench

# Differential-fuzzing smoke: short seeded runs of the native fuzz
# targets (machine-vs-checker containment, state-encoding round trip)
# plus the planted negative controls end to end, and a short Δ > 0
# campaign, which exits 1 on any mismatch, a sampled run that does not
# replay as a checker path at the covering Δ among them (docs/FUZZ.md).
# Last, the sharded CLI must agree with the serial one: the same
# 64-program campaign at -workers 1 and 4 writes byte-identical
# checkpoints and summaries that differ only in elapsed_ms; and with the
# reference oracle off (-crosscheck -1) its summary must not change
# either, so which check settled a cell never reaches the report. A real
# campaign: go test -fuzz=FuzzMachineVsChecker ./internal/fuzz, or
# go run ./cmd/tbtso-fuzz -n 10000 -deltas 0,1,3,inf.
SMOKE_DIR := .fuzz-smoke
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzMachineVsChecker -fuzztime 10s ./internal/fuzz
	$(GO) test -run '^$$' -fuzz FuzzEncodeRoundTrip -fuzztime 10s ./internal/mc
	$(GO) run ./cmd/tbtso-fuzz -plant
	$(GO) run ./cmd/tbtso-fuzz -n 200 -deltas 1,3
	rm -rf $(SMOKE_DIR) && mkdir $(SMOKE_DIR)
	for w in 1 4; do \
		$(GO) run ./cmd/tbtso-fuzz -n 64 -workers $$w -json -ckpt $(SMOKE_DIR)/w$$w.ckpt > $(SMOKE_DIR)/w$$w.json || exit 1; \
		grep -v '"elapsed_ms"' $(SMOKE_DIR)/w$$w.json > $(SMOKE_DIR)/w$$w.sum || exit 1; \
	done
	$(GO) run ./cmd/tbtso-fuzz -n 64 -crosscheck -1 -json > $(SMOKE_DIR)/nocc.json
	grep -v '"elapsed_ms"' $(SMOKE_DIR)/nocc.json > $(SMOKE_DIR)/nocc.sum
	cmp $(SMOKE_DIR)/w1.ckpt $(SMOKE_DIR)/w4.ckpt
	diff $(SMOKE_DIR)/w1.sum $(SMOKE_DIR)/w4.sum
	diff $(SMOKE_DIR)/w1.sum $(SMOKE_DIR)/nocc.sum
	rm -rf $(SMOKE_DIR)

# Regenerate every figure of the paper's evaluation (plus the §6.1
# bail-out validation and the §4.2.1 sizing numbers).
figures:
	$(GO) run ./cmd/tbtso-bench -figure all

figures-quick:
	$(GO) run ./cmd/tbtso-bench -figure all -quick

# Extension experiments: thread scaling and the passive RW lock.
extensions:
	$(GO) run ./cmd/tbtso-bench -figure scaling,rwlock

# The soundness demonstrations.
demos:
	$(GO) run ./cmd/tbtso-sim -demo reclaim
	$(GO) run ./cmd/tbtso-sim -demo deque
	$(GO) run ./cmd/tbtso-sim -exhaustive

# Non-test Go line count outside the benchmark module: the size figure
# CHANGES.md records.
loc:
	@git ls-files --cached --others --exclude-standard '*.go' | grep -v _test.go | grep -v '^benchmark/' | xargs cat | wc -l

clean:
	$(GO) clean ./...
