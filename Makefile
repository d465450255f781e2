# Standard developer entry points. Everything is stdlib-only Go; no
# tools beyond the toolchain are required.

GO ?= go

.PHONY: all build vet test race fuzz bench bench-dse bench-fleet soak-fleet experiments-check serve clean

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The serve subsystem is concurrency-heavy; run the whole tree under
# the race detector before shipping.
race:
	$(GO) test -race ./...

# Short fuzz smoke over the parser targets, the batch-vs-sequential
# pricing differential, the traceparent header parser, the fusion
# partitioner, the fleet journal replay and the canonical key encoder
# (one -fuzz per invocation, a Go toolchain constraint). CI runs this
# target, so the list lives only here.
fuzz:
	$(GO) test -fuzz=FuzzParseDataflow -fuzztime=10s -run xxx ./internal/dataflow/
	$(GO) test -fuzz=FuzzParseNetwork -fuzztime=10s -run xxx ./internal/dataflow/
	$(GO) test -fuzz=FuzzParseHW -fuzztime=10s -run xxx ./internal/hw/
	$(GO) test -fuzz=FuzzPartition -fuzztime=10s -run xxx ./internal/dse/
	$(GO) test -fuzz=FuzzPriceBatch -fuzztime=10s -run xxx ./internal/core/
	$(GO) test -fuzz=FuzzExtractTraceparent -fuzztime=10s -run xxx ./internal/obs/
	$(GO) test -fuzz=FuzzPartitionDAG -fuzztime=10s -run xxx ./internal/netsched/
	$(GO) test -fuzz=FuzzJournalReplay -fuzztime=10s -run xxx ./internal/fleet/
	$(GO) test -fuzz=FuzzCanonicalKey -fuzztime=10s -run xxx ./internal/canon/

# One pass over the figure/table benchmarks plus the service benchmarks.
bench:
	$(GO) test -bench . -benchtime 1x -run xxx .
	$(GO) test -bench . -benchmem -run xxx ./internal/serve

# DSE throughput: warm-cache, cold-profile, and per-point-Analyze
# variants of the Explore benchmark plus the Profile/Price/PriceBatch
# microbenchmarks; the measured numbers are recorded in BENCH_dse.json.
bench-dse:
	$(GO) test -bench 'BenchmarkExplore|BenchmarkProfileVsAnalyze|BenchmarkPriceBatch' -benchtime 200x -benchmem -run xxx ./internal/dse/ ./internal/core/

# Fleet scaling: 1/2/4 in-process nodes with injected per-shard service
# time; the measured numbers are recorded in BENCH_fleet.json.
bench-fleet:
	$(GO) test -bench BenchmarkFleetSweep -benchtime 3x -run xxx ./internal/fleet

# Crash-recovery soak: kill the coordinator mid-sweep and resume from
# the journal, SOAK_N times in a row under the race detector. Any
# nondeterminism in replay or journal truncation shows up here.
SOAK_N ?= 10
soak-fleet:
	$(GO) test -race -run 'TestChaosCoordinatorCrashResume' -count $(SOAK_N) -timeout 10m ./internal/fleet/

# Regenerate every paper table and figure and diff the result against
# the committed experiments_output.txt. Only the wall-clock fields are
# masked: the time and rate columns of the Fig. 13(c) DSE statistics and
# their average rate.
EXPERIMENTS_MASK = sed -E \
	-e '/^(KC|YR|YX)-P VGG16-/s/[0-9.]+s +[0-9.]+[kMGT]?$$/<time> <rate>/' \
	-e 's/time +rate \(designs\/s\)$$/time rate (designs\/s)/' \
	-e 's/average rate [0-9.]+[kMGT]? designs/average rate <rate> designs/'
experiments-check:
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	$(GO) run ./cmd/experiments all | $(EXPERIMENTS_MASK) > "$$out" && \
	$(EXPERIMENTS_MASK) experiments_output.txt | diff -u - "$$out" && \
	echo "experiments_output.txt matches a fresh run"

serve:
	$(GO) run ./cmd/maestro-serve

clean:
	$(GO) clean ./...
