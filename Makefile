GO ?= go
FUZZTIME ?= 30s
# Comma-separated soak seeds, e.g. `make soak ODE_SOAK_SEEDS=1,2,3,17`.
# Empty means the suite's default three (1,2,3).
ODE_SOAK_SEEDS ?=

# The restart, rollback-repair and allocation tests `make race` repeats.
# Every rollback repairs its shard store's heap free-space cache, the
# sweep keeping its place; the store's id leases outlive it and cover
# the persisted counter again on their next id.
RESTART_TESTS = CrossOrderRestart|DescendingJoin|RerunLocks|SwallowedRouting|RoutingRestart|ResetsOnlyJoinedShards|RestartKeepsHeapSweep|BatchFailureResets|IDsUniqueAcrossAbort|LeaseOutlivesRollback
# The writer-led pipeline's liveness tests: one background goroutine per
# shard, and no queued request left without a writer to lead it.
LIVENESS_TESTS = ShardRunsOneBackgroundGoroutine|NoRequestStranded
# The commit-pipeline tests `make race` repeats: background checkpoints
# and writers' checkpoints past the slack (with and without NoSync), the
# decision log's trim by the cross-shard commit that fills it, batch
# failures, failures spanning overlapping flushes, acknowledged flushes
# left to the collector, refused submits, and the liveness tests.
PIPELINE_TESTS = NoSyncCheckpointFailure|DirtyPagesTrigger|NoSyncCrossShard|DecisionLogBounded|WriterCheckpointsPastTheSlack|FailedBatchWithPrepare|YoungerFlightFailsWithOlder|AckedFlightsAreUnreachable|SubmitRefused|$(LIVENESS_TESTS)
# The read-snapshot tests `make race` repeats at GOMAXPROCS 1 and 2: a
# View is the state at one instant, an open publication bracket holds
# every cut builder off, a View never sees a cross-shard Update on one
# shard and not the other, and the striped references on a cut that
# readers take and commits retire unpin it exactly once, never under a
# reader.
CUT_TESTS = ViewSeesAckedPrefix|PublishBracketHoldsBuildersOff|ShardedViewAtomicCrossShard|CutRefsUnderChurn
# The B+tree entry-offset table tests `make race` repeats: readers racing
# to build a published leaf's table while the writer edits its copy, a
# rollback retiring the table of the bytes it undid, the writer's edits
# deriving the leaf's table alongside its bytes, and readers keeping the
# published table a first-touch edit derives its copy's from.
BTREE_TESTS = ReadersRaceToIndexPublishedLeaf|RollbackRetiresOffsetTable|EditsUpdateOffsetTable|EditKeepsReadersTable
# The dereference cache's invalidation tests `make race` repeats: writers
# closing entries at increasing epochs while readers fill the cache, and
# every mutation of a warm object's latest through the engine, a View
# pinned before the commit and a reshard round trip among them.
DEREF_TESTS = InvalidationNeverServesSuperseded|DerefStalenessMatrix
# The buffer pool's lock-free read path tests `make race` repeats at
# GOMAXPROCS 1 and 2: readers pinned at several epochs resolving pages
# without the pool mutex while the writer copies, flushes and evicts
# under them (in the pool, and through the engine with a 16-page pool at
# 1 and 4 shards), and misses on one page that share one read or its
# error.
POOL_TESTS = PoolReadersUnderEviction|PoolConcurrentMissReadsOnce|PoolFailedMissWakesEveryWaiter|ConcurrentReadersUnderPoolPressure
# The statistics tests `make race` repeats at GOMAXPROCS 1 and 2: pollers
# that must never read more batches than commits while committers land,
# and the checkpoint-trigger counters that must sum to the automatic
# checkpoints the shards ran.
STATS_TESTS = StatsTornReadRegression|CheckpointTriggersCountRuns
# The checkpoint tests `make race` repeats at GOMAXPROCS 1 and 2: a
# writer committing beside an automatic checkpoint parked in its data-file
# fsync, and the crash matrix over a checkpoint that writes pages back
# while commits go on in the log's new segment.
CHECKPOINT_TESTS = CheckpointDoesNotBlockWriters|CheckpointSwitchFaultMatrix
# The write bundle's record memo test `make race` repeats: every memo
# entry against a fresh tree read after each step of a transaction that
# also splices a delete, rewrites an old version, restarts on a join
# below a held shard, or races a live reshard moving its objects.
MEMO_TESTS = MemoMatchesTrees
# The packages `make cover` holds to an 85% line-coverage floor.
COVER_FLOOR_PKGS = obs workload delta matcache derefcache

# Bare `make` keeps building, as before the help target existed.
.DEFAULT_GOAL := build

help:
	@echo "Targets:"
	@echo "  build    go build ./..."
	@echo "  test     go test ./..."
	@echo "  vet      go vet ./..."
	@echo "  fmt      fail if gofmt would reformat any file"
	@echo "  race     full test suite under -race, then the restart, reset,"
	@echo "           allocation, commit-pipeline, B+tree offset-table and"
	@echo "           dereference-cache invalidation tests twenty times over,"
	@echo "           and the pipeline liveness, read-snapshot, buffer-pool"
	@echo "           read-path, statistics and checkpoint tests at GOMAXPROCS 1"
	@echo "           and 2 (the statistics pair Commits >= Batches holds by"
	@echo "           memory order alone, with no lock; an automatic checkpoint"
	@echo "           writes pages back beside the writers), and the write"
	@echo "           bundle's record-memo test twenty times over"
	@echo "  matrix   crash-consistency fault matrix at 1 and 4 shards (-race),"
	@echo "           the checkpoint-switch rows included"
	@echo "  soak     metrics-reconciling soak suite at 1 and 4 shards (-race);"
	@echo "           seeds default to 1,2,3 — override with a comma-separated"
	@echo "           list, e.g. make soak ODE_SOAK_SEEDS=1,2,3,17,99"
	@echo "  ycsb     odebench E15 smoke: oracle-checked YCSB workload, every"
	@echo "           version shape at 1 and 4 shards, under -race"
	@echo "  delta-matrix  delta-tier battery: round-trip and inline-fixpoint"
	@echo "           properties, crash matrix over demotions, deep-chain"
	@echo "           workload, at ODE_SHARDS=4, under -race; plus odebench"
	@echo "           E17 smoke"
	@echo "  hotpath  allocation-regression gates on the commit and cached"
	@echo "           deref paths, read begin/end and the B+tree, the read"
	@echo "           begin/end microbenchmark, the B+tree microbenchmarks,"
	@echo "           the hot-write page guard and the DChildren"
	@echo "           microbenchmark, the pool-hit allocation gate and"
	@echo "           microbenchmark, the cached-View and striped-counter"
	@echo "           microbenchmarks, each at 1 and 2 CPUs, the per-write"
	@echo "           B+tree descent bounds, one run of the cold-history"
	@echo "           preload (BenchmarkPreload: ns and allocs per version,"
	@echo "           about a second — the quick check of a setup_s change,"
	@echo "           without the benchmark's 3 x 10 s run), plus odebench"
	@echo "           E18 smoke"
	@echo "  fuzz     continuous fuzz over every native target, FUZZTIME=$(FUZZTIME) each"
	@echo "  fuzz-smoke  same targets at 10s each — the CI tier"
	@echo "  cover    line coverage, with 85% floors on internal/obs,"
	@echo "           internal/workload, internal/delta, internal/matcache,"
	@echo "           internal/derefcache, (per-file, over the delta"
	@echo "           battery) the two compact.go files and (per-file, over"
	@echo "           their packages) internal/storage/pool.go and"
	@echo "           internal/txn/checkpoint.go"
	@echo "  loc      non-test Go lines per package and their total, the"
	@echo "           ode.Options field count and the number of declared"
	@echo "           /metrics series — the numbers a consolidation PR is"
	@echo "           judged by"
	@echo "  check    build + vet + fmt + race + matrix + soak + ycsb + delta-matrix"
	@echo "           + hotpath, then loc"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Every Go file as gofmt would write it; the list of those that are not
# is printed on failure.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# The second line reruns the restart, rollback-repair and id-allocation
# tests twenty times under the race detector: they interleave parked
# writers, try-locks and reruns, and a store's id leases and the heap
# cache a rollback repairs are guarded by nothing but the shard's writer
# mutex that every rollback runs under.
# The third does the same for the commit pipeline: writers leading
# their own flights and fsyncs beside every shard's checkpointer
# goroutine, NoSync or not, racing for the writer mutex and the log. Its
# 3,000-commit cross-shard test takes ~30 s under -race, so twenty runs
# need more than the default ten-minute test timeout. The fourth runs
# the liveness tests at GOMAXPROCS 1 and 2: at 1, a missed hand-off
# between writers hangs instead of passing by luck. It also runs the
# read-snapshot tests there (CUT_TESTS): the only guard of a cut against
# a multi-shard publication is the generation's parity, and a builder
# that slipped into a bracket would show as a torn View; and a reader
# that took a reference on a cut a commit had just retired would show as
# a View of an unpinned cut. The fifth repeats the
# B+tree's entry-offset table tests: tables built and shared by readers,
# derived by the writer alongside its edits — in its own page's buffer,
# or a fresh one after a first-touch copy — and rebuilt in place after a
# rollback, beside readers holding the published leaf. The sixth repeats
# the dereference cache's invalidation tests, whose races are between a
# reader's fill and a writer's invalidation. The seventh runs the buffer
# pool's read-path tests at GOMAXPROCS 1 and 2: a hit reads a page's slot
# without the pool mutex, and only the order of its two loads against
# the writer's two stores keeps a reader off a page being edited. The
# eighth runs the statistics tests there (STATS_TESTS): no lock keeps
# Commits and Batches together, only the committer's order of its two
# adds against Stats' order of its two loads, as with CUT_TESTS. The
# ninth runs the checkpoint tests there (CHECKPOINT_TESTS): an automatic
# checkpoint writes pages back with no lock while writers commit into the
# log's new segment, and only the one-at-a-time handshake (Manager.run)
# orders it against the next checkpoint and a failed flight's heal.
# The tenth repeats the record memo test (MEMO_TESTS): its reshard row
# races the migration's chunks against the writers it restarts.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run '$(RESTART_TESTS)' ./internal/txn ./internal/core ./internal/policy ./internal/storage
	$(GO) test -race -count=20 -timeout 30m -run '$(PIPELINE_TESTS)' ./internal/txn .
	$(GO) test -race -count=20 -cpu 1,2 -run '$(LIVENESS_TESTS)|$(CUT_TESTS)' ./internal/txn .
	$(GO) test -race -count=20 -run '$(BTREE_TESTS)' ./internal/btree
	$(GO) test -race -count=20 -run '$(DEREF_TESTS)' ./internal/derefcache .
	$(GO) test -race -count=20 -cpu 1,2 -run '$(POOL_TESTS)' ./internal/storage .
	$(GO) test -race -count=20 -cpu 1,2 -run '$(STATS_TESTS)' .
	$(GO) test -race -count=20 -cpu 1,2 -run '$(CHECKPOINT_TESTS)' ./internal/txn .
	$(GO) test -race -count=20 -run '$(MEMO_TESTS)' ./internal/core

# The crash-consistency fault matrix (DESIGN.md §8, §12) under the race
# detector: every WAL/storage injection point plus the engine-level
# matrix through the public Options.FS hook, at both shard dimensions —
# ODE_SHARDS=1 is one shard of the one layout (one WAL, an empty
# decision log) and the line that also drives the standalone-Manager
# matrices in ./internal/txn and ./internal/storage; ODE_SHARDS=4
# re-runs the engine-level matrix against four shard WALs plus the 2PC
# coordinator log (the coordinator's own fault matrix runs in
# ./internal/txn either way). Both lines run the decision log's trim
# faults (TestDecisionTrimFaultMatrix), at two shards and at four. The
# checkpoint-switch rows (TestCheckpointSwitchFaultMatrix, in
# ./internal/txn) read ODE_SHARDS themselves, so the third line runs
# them again at four shards.
matrix:
	ODE_SHARDS=1 $(GO) test -race -run 'FaultMatrix|RecoveryDeterministic|PoolReadFault|EngineCrashMatrix|FailedCommitSync' ./internal/txn ./internal/storage .
	ODE_SHARDS=4 $(GO) test -race -count=1 -run 'FaultMatrix|EngineCrashMatrix|FailedCommitSync' .
	ODE_SHARDS=4 $(GO) test -race -count=1 -run 'CheckpointSwitchFaultMatrix' ./internal/txn

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
# commit every 16 reads; the B+tree microbenchmarks print Get, SeekLE,
# Put and Ascend ns/op at a fixed iteration count (EXPERIMENTS.md E26);
# a buffer-pool hit, Get or GetAt, must allocate nothing, and the pool-hit
# microbenchmark prints ns/op at one and two CPUs (EXPERIMENTS.md E35);
# so do the cached-View microbenchmark, one reader per CPU, and a striped
# counter's add from every CPU (E36): at two CPUs neither should cost
# more per op than at one; a one-object write and a bulk load must stay
# within their B+tree descent bounds (TestWriteDescents), and the
# cold-history preload runs once (BenchmarkPreload, E38); then the E18
# benchmark runs at ci scale as an end-to-end smoke — alloc reductions,
# cache speedup, hit rates.
hotpath:
	$(GO) test -count=1 -run 'TestCommitPathAllocs|TestHotDerefAllocs|TestWriteDescents' -v .
	$(GO) test -count=1 -run '^$$' -bench 'BenchmarkPreload$$' -benchtime 1x .
	$(GO) test -count=1 -run 'TestReadBeginEndAllocs' -v ./internal/txn
	$(GO) test -count=1 -run '^$$' -bench 'BenchmarkReadBeginEnd' -benchtime 100000x ./internal/txn
	$(GO) test -count=1 -run 'TestTreeGetAllocs|TestTreePutAllocs' -v ./internal/btree
	$(GO) test -count=1 -run '^$$' -bench 'BenchmarkTree(Get|SeekLE|Put|Ascend)$$' -benchtime 200000x ./internal/btree
	$(GO) test -count=1 -run 'TestHotWritePagesFlatInVersions' -bench 'BenchmarkDChildren' -benchtime 200x -v ./internal/core
	$(GO) test -count=1 -run 'TestPoolHitAllocs' -bench 'BenchmarkPoolGetHit' -benchtime 2000000x -cpu 1,2 -v ./internal/storage
	$(GO) test -count=1 -run '^$$' -bench 'BenchmarkHotDeref$$' -benchtime 200000x -cpu 1,2 .
	$(GO) test -count=1 -run '^$$' -bench 'BenchmarkCounterInc$$' -benchtime 5000000x -cpu 1,2 ./internal/obs
	$(GO) run ./cmd/odebench -scale ci -only E18 -hotpathjson ""

# The delta-tier battery (DESIGN.md §14, EXPERIMENTS.md E17): the
# random-edit round-trip property across anchor intervals, the property
# that the write paths leave Compact nothing to do, Compact's sweeps of
# tier-off chains and derivation trees, the crash matrix
# over demotion commits, the materialisation cache and reshard-
# interaction tests, and the deep-chain oracle workload — at
# four shards under -race (the one-shard run covered no statement this
# one misses, so it went; plain `go test` still runs the battery at the
# default count) — then the E17 benchmark at ci scale as an end-to-end
# smoke.
delta-matrix:
	ODE_SHARDS=4 $(GO) test -race -count=1 -run 'TestDelta' .
	$(GO) test -race -count=1 -run 'TestDeepChainShape' ./internal/workload
	$(GO) run -race ./cmd/odebench -scale ci -only E17 -deltajson ""

# Line coverage, with hard floors on COVER_FLOOR_PKGS: the observability
# layer is pure bookkeeping, the workload harness is the correctness
# oracle and the caches decide what a read may serve — uncovered lines
# there are untested claims. The compaction write-side lives in
# internal/core/compact.go and DB.Compact in compact.go, both exercised
# from the root delta battery (including its read-fault and crash
# matrices) — so the 85% floors there are per-file, measured over that
# battery; the uncovered remainder is I/O-error returns the fault
# matrices don't reach. The buffer pool's internal/storage/pool.go has a
# per-file 85% floor over its own package's tests, which drive its
# lock-free hits, off-lock misses and CLOCK eviction directly; the
# checkpoint code in internal/txn/checkpoint.go has one over its own
# package's tests, whose crash matrices drive the write-back off the
# writer mutex. The profiles go to a temporary directory, removed when
# the recipe ends.
cover:
	$(GO) test -cover ./...
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	for p in $(COVER_FLOOR_PKGS); do \
	  $(GO) test -coverprofile=$$d/$$p.cover ./internal/$$p; \
	  $(GO) tool cover -func=$$d/$$p.cover | awk -v pkg=internal/$$p '/^total:/ { \
	    pct = $$3 + 0; \
	    printf "%s coverage: %s (floor 85%%)\n", pkg, $$3; \
	    if (pct < 85) { printf "FAIL: %s below 85%% coverage\n", pkg; exit 1 } }'; \
	done; \
	$(GO) test -count=1 -run 'TestDelta' -coverprofile=$$d/deltatier.cover -coverpkg=./internal/core,. .; \
	$(GO) test -count=1 -coverprofile=$$d/storage.cover ./internal/storage; \
	$(GO) test -count=1 -coverprofile=$$d/txn.cover ./internal/txn; \
	for fp in ode/internal/core/compact.go:deltatier ode/compact.go:deltatier ode/internal/storage/pool.go:storage ode/internal/txn/checkpoint.go:txn; do \
	  f=$${fp%%:*}; awk -v file="$$f" '$$1 ~ "^"file { t += $$2; if ($$3 > 0) c += $$2 } END { \
	    pct = 100*c/t; \
	    printf "%s coverage: %.1f%% (floor 85%%)\n", file, pct; \
	    if (pct < 85) { printf "FAIL: %s below 85%% coverage\n", file; exit 1 } }' $$d/$${fp##*:}.cover; \
	done

# The consolidation scoreboard: non-test Go lines per package (GoFiles
# excludes _test.go) and their total, the size of the public option
# surface, and the number of /metrics series declared (the cells of
# obs.Metrics and the two tables in series.go). Printed at the end of
# `make check`, so CI logs carry the numbers.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | while read pkg files; do \
	  if [ -n "$$files" ]; then printf '%7d  %s\n' "$$(cat $$files | wc -l)" "$$pkg"; fi; done | \
	  awk '{ print; t += $$1 } END { printf "%7d  total\n", t }'
	@$(GO) test -count=1 -run 'TestOptionsFieldCount|TestSeriesDeclaredOnce' -v . | grep -E 'ode.Options has|series are declared'

check: build vet fmt race matrix soak ycsb delta-matrix hotpath loc

.PHONY: help build test vet fmt race matrix fuzz fuzz-smoke soak ycsb delta-matrix hotpath cover loc check
