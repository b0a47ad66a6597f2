GO ?= go
FUZZTIME ?= 30s
# Comma-separated soak seeds, e.g. `make soak ODE_SOAK_SEEDS=1,2,3,17`.
# Empty means the suite's default three (1,2,3).
ODE_SOAK_SEEDS ?=

# The restart, reset and allocation tests `make race` repeats.
RESTART_TESTS = CrossOrderRestart|DescendingJoin|RerunLocks|SwallowedRouting|RoutingRestart|ResetsOnlyJoinedShards|BatchFailureResets|IDsUniqueAcrossAbort
# The commit-pipeline tests `make race` repeats: background checkpoints
# (with and without NoSync), batch failures, failures spanning
# overlapping flushes, acknowledged flushes left to the collector, and
# refused submits.
PIPELINE_TESTS = NoSyncCheckpointFailure|DirtyPagesTrigger|NoSyncCrossShard|FailedBatchWithPrepare|YoungerFlightFailsWithOlder|AckedFlightsAreUnreachable|SubmitRefused

# Bare `make` keeps building, as before the help target existed.
.DEFAULT_GOAL := build

help:
	@echo "Targets:"
	@echo "  build    go build ./..."
	@echo "  test     go test ./..."
	@echo "  vet      go vet ./..."
	@echo "  race     full test suite under -race, then the restart, reset,"
	@echo "           allocation and commit-pipeline tests twenty times over"
	@echo "  matrix   crash-consistency fault matrix at 1 and 4 shards (-race)"
	@echo "  soak     metrics-reconciling soak suite at 1 and 4 shards (-race);"
	@echo "           seeds default to 1,2,3 — override with a comma-separated"
	@echo "           list, e.g. make soak ODE_SOAK_SEEDS=1,2,3,17,99"
	@echo "  ycsb     odebench E15 smoke: oracle-checked YCSB workload, every"
	@echo "           version shape at 1 and 4 shards, under -race"
	@echo "  delta-matrix  delta-tier battery: round-trip property, crash matrix"
	@echo "           over compactor demotions, deep-chain workload, at"
	@echo "           ODE_SHARDS=4, under -race; plus odebench E17 smoke"
	@echo "  hotpath  allocation-regression gates on the commit and cached"
	@echo "           deref paths, read begin/end and the B+tree, the read"
	@echo "           begin/end microbenchmark, the hot-write page guard and"
	@echo "           the DChildren microbenchmark, plus odebench E18 smoke"
	@echo "  fuzz     continuous fuzz over every native target, FUZZTIME=$(FUZZTIME) each"
	@echo "  fuzz-smoke  same targets at 10s each — the CI tier"
	@echo "  cover    line coverage, with 85% floors on internal/obs,"
	@echo "           internal/workload, internal/delta, internal/matcache and"
	@echo "           (per-file, over the delta battery) the two compact.go files"
	@echo "  loc      non-test Go lines per package, the ode.Options field count"
	@echo "           and the number of declared /metrics series — the numbers"
	@echo "           a consolidation PR is judged by"
	@echo "  check    build + vet + race + matrix + soak + ycsb + delta-matrix + hotpath,"
	@echo "           then loc"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The second line reruns the restart, rollback-reset and id-allocation
# tests twenty times under the race detector: they interleave parked
# writers, try-locks and reruns, and the allocator's leases are guarded
# by nothing but the shard's writer mutex that every reset runs under.
# The third does the same for the commit pipeline: every shard's
# committer and checkpointer goroutines, NoSync or not, racing writers
# for the writer mutex and the log. Its 3,000-commit cross-shard test
# takes ~30 s under -race, so twenty runs need more than the default
# ten-minute test timeout.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run '$(RESTART_TESTS)' ./internal/txn ./internal/core ./internal/policy
	$(GO) test -race -count=20 -timeout 30m -run '$(PIPELINE_TESTS)' ./internal/txn .

# The crash-consistency fault matrix (DESIGN.md §8, §12) under the race
# detector: every WAL/storage injection point plus the engine-level
# matrix through the public Options.FS hook, at both shard dimensions —
# ODE_SHARDS=1 is one shard of the one layout (one WAL, an empty
# decision log) and the line that also drives the standalone-Manager
# matrices in ./internal/txn and ./internal/storage; ODE_SHARDS=4
# re-runs the engine-level matrix against four shard WALs plus the 2PC
# coordinator log (the coordinator's own fault matrix runs in
# ./internal/txn either way).
matrix:
	ODE_SHARDS=1 $(GO) test -race -run 'FaultMatrix|RecoveryDeterministic|PoolReadFault|EngineCrashMatrix|FailedCommitSync' ./internal/txn ./internal/storage .
	ODE_SHARDS=4 $(GO) test -race -count=1 -run 'FaultMatrix|EngineCrashMatrix|FailedCommitSync' .

# Short continuous-fuzz pass over every native fuzz target (seed
# corpora under testdata/fuzz always run as part of plain `go test`;
# this explores beyond them). One target at a time — `go test -fuzz`
# accepts a single pattern per run.
fuzz:
	$(GO) test -fuzz FuzzScanEnd -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -fuzz FuzzBatchTail -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -fuzz FuzzPageDelta -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -fuzz FuzzCoordDecisionScan -fuzztime $(FUZZTIME) ./internal/txn
	$(GO) test -fuzz FuzzReaderOps -fuzztime $(FUZZTIME) ./internal/codec
	$(GO) test -fuzz FuzzRoundTrip -fuzztime $(FUZZTIME) ./internal/codec
	$(GO) test -fuzz FuzzDeltaChain -fuzztime $(FUZZTIME) ./internal/delta
	$(GO) test -fuzz FuzzBTreeNode -fuzztime $(FUZZTIME) ./internal/btree

# The 10-second-per-target tier CI runs on every push: long enough to
# explore past the seed corpora, short enough for a PR gate.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=10s

# Metrics-reconciling soak suite (soak_test.go) under the race
# detector: randomized concurrent workloads whose Stats/Metrics
# counters must reconcile exactly with an in-memory model, plus the
# tracer fault-isolation tests — at Shards=1 and again at Shards=4
# (per-shard pipelines, cross-shard 2PC, rolled-up metrics). The two
# runs share every line of the engine but two: with one physical shard
# an extent scan iterates its tree directly instead of merging cursors
# (core.Tx.Extent), and one B+tree holding everything is the run that
# empties and prunes whole leaves (btree unlinkLeaf/lastLeaf) — which is
# why the Shards=1 run stays. Seeds are configurable:
# ODE_SOAK_SEEDS=1,2,3,17 runs four seeds per dimension.
soak:
	ODE_SHARDS=1 ODE_SOAK_SEEDS=$(ODE_SOAK_SEEDS) $(GO) test -race -count=1 -run 'TestSoak|TestStats|TestTracer' .
	ODE_SHARDS=4 ODE_SOAK_SEEDS=$(ODE_SOAK_SEEDS) $(GO) test -race -count=1 -run 'TestSoak|TestStats|TestTracer' .

# The E15 oracle-checked workload smoke (EXPERIMENTS.md E15): every
# version shape at 1 and 4 shards, zipfian + uniform, under -race.
# Every read in every window is validated against the in-memory
# reference model; any divergence fails with a seed+trace repro.
ycsb:
	$(GO) run -race ./cmd/odebench -scale ci -only E15 -ycsbjson ""

# The hot-path gate (DESIGN.md §15, EXPERIMENTS.md E18, E20): the
# allocation-regression tests pin the zero-copy commit path, the
# cached dereference read, beginning and ending a read at 1/4/8 shards
# and the in-place B+tree's Get and Put to their measured allocs/op
# ceilings; the read begin/end microbenchmark (the router layer's entry
# in the cost ledger) prints ns/op by shard count, quiet and with a
# commit every 16 reads; then the E18 benchmark runs at ci scale as an
# end-to-end smoke — alloc reductions, cache speedup, hit rates.
hotpath:
	$(GO) test -count=1 -run 'TestCommitPathAllocs|TestHotDerefAllocs' -v .
	$(GO) test -count=1 -run 'TestReadBeginEndAllocs' -v ./internal/txn
	$(GO) test -count=1 -run '^$$' -bench 'BenchmarkReadBeginEnd' -benchtime 100000x ./internal/txn
	$(GO) test -count=1 -run 'TestTreeGetAllocs|TestTreePutAllocs' -v ./internal/btree
	$(GO) test -count=1 -run 'TestHotWritePagesFlatInVersions' -bench 'BenchmarkDChildren' -benchtime 200x -v ./internal/core
	$(GO) run ./cmd/odebench -scale ci -only E18 -hotpathjson ""

# The delta-tier battery (DESIGN.md §14, EXPERIMENTS.md E17): the
# random-edit round-trip property across anchor intervals, the crash
# matrix over compactor demotion commits, the materialisation cache and
# reshard-interaction tests, and the deep-chain oracle workload — at
# four shards under -race (the one-shard run covered no statement this
# one misses, so it went; plain `go test` still runs the battery at the
# default count) — then the E17 benchmark at ci scale as an end-to-end
# smoke.
delta-matrix:
	ODE_SHARDS=4 $(GO) test -race -count=1 -run 'TestDelta' .
	$(GO) test -race -count=1 -run 'TestDeepChainShape' ./internal/workload
	$(GO) run -race ./cmd/odebench -scale ci -only E17 -deltajson ""

# Line coverage, with hard floors on internal/obs and internal/workload:
# the observability layer is pure bookkeeping and the workload harness
# is the correctness oracle — uncovered lines there are untested claims.
cover:
	$(GO) test -cover ./...
	$(GO) test -coverprofile=/tmp/obs.cover ./internal/obs
	@$(GO) tool cover -func=/tmp/obs.cover | awk '/^total:/ { \
	  pct = $$3 + 0; \
	  printf "internal/obs coverage: %s (floor 85%%)\n", $$3; \
	  if (pct < 85) { print "FAIL: internal/obs below 85% coverage"; exit 1 } }'
	$(GO) test -coverprofile=/tmp/workload.cover ./internal/workload
	@$(GO) tool cover -func=/tmp/workload.cover | awk '/^total:/ { \
	  pct = $$3 + 0; \
	  printf "internal/workload coverage: %s (floor 85%%)\n", $$3; \
	  if (pct < 85) { print "FAIL: internal/workload below 85% coverage"; exit 1 } }'
	$(GO) test -coverprofile=/tmp/delta.cover ./internal/delta
	@$(GO) tool cover -func=/tmp/delta.cover | awk '/^total:/ { \
	  pct = $$3 + 0; \
	  printf "internal/delta coverage: %s (floor 85%%)\n", $$3; \
	  if (pct < 85) { print "FAIL: internal/delta below 85% coverage"; exit 1 } }'
	$(GO) test -coverprofile=/tmp/matcache.cover ./internal/matcache
	@$(GO) tool cover -func=/tmp/matcache.cover | awk '/^total:/ { \
	  pct = $$3 + 0; \
	  printf "internal/matcache coverage: %s (floor 85%%)\n", $$3; \
	  if (pct < 85) { print "FAIL: internal/matcache below 85% coverage"; exit 1 } }'
	# The compaction write-side lives in internal/core/compact.go and
	# the sweeper pacing in compact.go, both exercised from the root
	# delta battery (including its read-fault and crash matrices) — so
	# the 85% floors here are per-file, measured over that battery. The
	# uncovered remainder is I/O-error returns the fault matrices don't
	# reach.
	$(GO) test -count=1 -run 'TestDelta' -coverprofile=/tmp/deltatier.cover -coverpkg=./internal/core,. .
	@for f in ode/internal/core/compact.go ode/compact.go; do \
	  awk -v file="$$f" '$$1 ~ "^"file { t += $$2; if ($$3 > 0) c += $$2 } END { \
	    pct = 100*c/t; \
	    printf "%s coverage: %.1f%% (floor 85%%)\n", file, pct; \
	    if (pct < 85) { printf "FAIL: %s below 85%% coverage\n", file; exit 1 } }' /tmp/deltatier.cover || exit 1; \
	done

# The consolidation scoreboard: non-test Go lines per package (GoFiles
# excludes _test.go), the size of the public option surface, and the
# number of /metrics series declared (the cells of obs.Metrics and the
# two tables in series.go). Printed at the end of `make check`, so CI
# logs carry the numbers.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | while read pkg files; do \
	  if [ -n "$$files" ]; then printf '%7d  %s\n' "$$(cat $$files | wc -l)" "$$pkg"; fi; done
	@$(GO) test -count=1 -run 'TestOptionsFieldCount|TestSeriesDeclaredOnce' -v . | grep -E 'ode.Options has|series are declared'

check: build vet race matrix soak ycsb delta-matrix hotpath loc

.PHONY: help build test vet race matrix fuzz fuzz-smoke soak ycsb delta-matrix hotpath cover loc check
