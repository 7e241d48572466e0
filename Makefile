GO ?= go

# Seed matrix for the chaos suite; override with CHAOS_SEEDS="1 2 3".
CHAOS_SEEDS ?= 42 7 1337

# Seed matrix for the disk-crash suite; override with CRASH_SEEDS="...".
CRASH_SEEDS ?= 42 7 1337

# Seed matrix for the network-split suite; override with SPLIT_SEEDS="...".
SPLIT_SEEDS ?= 42 7 1337

# Seed matrix for the bit-rot suite; override with ROT_SEEDS="...".
ROT_SEEDS ?= 42 7 1337

.PHONY: build test vet race verify bench bench-gassyfs bench-cache bench-aver bench-json bench-json-smoke chaos crash split rot e2e-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static analysis plus a format gate: any file gofmt would rewrite
# fails the loop.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l: files need formatting:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# The full verification loop: tier-1 (build + test) plus static
# analysis, the race detector over the concurrent sweep/cache/Aver
# paths, the seeded chaos suite, the disk-crash matrix, and a one-
# iteration smoke of the scheduler benchmark recorder so regressions in
# the scaling path fail the loop, plus the bit-rot matrix proving
# silent corruption stays detectable and healable, and a build of the
# end-to-end benchmark against this tree.
verify: build vet test race chaos crash split rot bench-json-smoke e2e-check

# The end-to-end benchmark (e2ebench/) is its own module, so the root
# `go build ./...` never compiles it: vet and test it against the
# working tree so an API change that breaks it fails the loop. Writes
# no file under e2ebench/.
e2e-check:
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

# Chaos determinism suite: the fault-injection golden tests under the
# race detector, once per seed in the matrix. Each seed is a different
# deterministic failure universe; byte-identity of sweep artifacts
# across -jobs levels and across interrupt/resume must hold in all of
# them (see docs/RESILIENCE.md).
chaos:
	@for seed in $(CHAOS_SEEDS); do \
		echo "-- chaos suite, seed $$seed"; \
		CHAOS_SEED=$$seed $(GO) test -race -count=1 \
			-run 'Chaos|Fault|Retry|Quarantine|Resilien|Partition|Crash|Deadline|FailFast|Resume' \
			./internal/fault/ ./internal/sched/ ./internal/pipeline/ \
			./internal/core/ ./internal/orchestrate/ ./internal/gasnet/ ./internal/gassyfs/ \
			|| exit 1; \
	done

# Disk-crash convergence suite: for every write/rename/fsync boundary
# in the artifact store's sync path, crash exactly there and prove that
# `popper fsck --repair` + `popper run -resume` reproduces a repository
# byte-identical to one that never crashed — under the race detector,
# once per seed (see docs/RESILIENCE.md, "Durability and crash
# recovery").
crash:
	@for seed in $(CRASH_SEEDS); do \
		echo "-- disk-crash suite, seed $$seed"; \
		CHAOS_SEED=$$seed $(GO) test -race -count=1 \
			-run 'DiskCrash|CrashMatrix|Fsck|Repair|Durable|Store|Sync|Manifest|Tracked|MemFS|DirFS|Resume|Recovery|Interrupted' \
			./internal/store/ ./internal/fault/ ./internal/core/ ./cmd/popper/ \
			|| exit 1; \
	done

# Network-split convergence suite: the replicated artifact store under
# every single-node crash point, every minority-partition cut/heal
# point, and the N=5 two-node minority — quorum reads stay
# read-your-writes throughout, and every healed group must converge to
# a repository byte-identical to an unfailed serial run. Runs under the
# race detector, once per seed (see docs/RESILIENCE.md, "Replication
# and failover").
split:
	@for seed in $(SPLIT_SEEDS); do \
		echo "-- network-split suite, seed $$seed"; \
		CHAOS_SEED=$$seed $(GO) test -race -count=1 \
			-run 'Split|Repl|Quorum|Epoch|Failover|Partition|Fence|Rejoin|Snapshot|Audit|Link' \
			./internal/repl/ ./internal/gasnet/ ./cmd/popper/ \
			|| exit 1; \
	done

# Bit-rot matrix: seeded silent corruption across every artifact class
# (workspace files, loose objects, packed extents, manifest) x every
# repair source (replica quorum, cas, loose pool, federation peers,
# deterministic reseal) — each injection must be detected by the
# scrub's fsck walk, healed from the highest-priority live source, and
# leave the tree byte-identical to an uncorrupted run; quorum-holds-
# the-rot degradation and unrepairable quarantine included. Under the
# race detector, once per seed (see docs/RESILIENCE.md, "Scrubbing and
# silent corruption").
rot:
	@for seed in $(ROT_SEEDS); do \
		echo "-- bit-rot suite, seed $$seed"; \
		CHAOS_SEED=$$seed $(GO) test -race -count=1 \
			-run 'Rot|Scrub|Corrupt|Quorum|Reseed|Salvage|Quarantine' \
			./internal/scrub/ ./internal/store/ ./internal/cas/ \
			./internal/fault/ ./internal/repl/ ./cmd/popper/ \
			|| exit 1; \
	done

bench:
	$(GO) test -run '^$$' -bench . -benchmem

# The scale-out data path ablations: serial vs parallel compile drive,
# concurrent cached reads, scalar vs vectored RDMA.
bench-gassyfs:
	$(GO) test -run '^$$' -bench 'BenchmarkGassyfsCompileGit|BenchmarkGassyfsReadParallel|BenchmarkGasnetGetv' -benchmem

# The federated-cache benchmarks: sharded-lock contention at high
# -jobs, the zero-alloc hit path, and the tier/extent micro-benches
# (see docs/CACHE.md).
bench-cache:
	$(GO) test -run '^$$' -bench 'Cache|Tier|Extent|Federation' -benchmem -cpu 8 \
		./internal/pipeline/ ./internal/cas/

# The streaming-validation benchmarks: incremental vs full-table cost
# of validating one appended batch across window sizes (see
# docs/AVER.md, "Streaming validation").
bench-aver:
	$(GO) test -run '^$$' -bench 'BenchmarkAverStreaming' -benchmem ./internal/aver/

# The repo's recorded perf trajectory: the cluster-scheduler benchmarks
# (scaling curve at 1/16/256/1024 simulated hosts plus the
# straggler-recovery triple) into BENCH_sched.json, and the federated-
# cache benchmarks (cold vs warm 64-config overlapping sweep, warm
# hit-rate at 1/16/256 simulated hosts, peer-fetch vs recompute virtual
# cost) into BENCH_cache.json (see docs/SCHEDULING.md, docs/CACHE.md),
# and the gassyfs family (compile-git scaling curve, host-parallel
# drive) into BENCH_gassyfs.json.
bench-json:
	BENCH_JSON=$(CURDIR)/BENCH_sched.json $(GO) test -run TestWriteBenchJSON -count=1 ./internal/sched/
	@echo "-- wrote BENCH_sched.json"
	BENCH_JSON=$(CURDIR)/BENCH_cache.json $(GO) test -run TestWriteCacheBenchJSON -count=1 ./internal/core/
	@echo "-- wrote BENCH_cache.json"
	BENCH_JSON=$(CURDIR)/BENCH_aver.json $(GO) test -run TestWriteAverBenchJSON -count=1 ./internal/core/
	@echo "-- wrote BENCH_aver.json"
	BENCH_JSON=$(CURDIR)/BENCH_gassyfs.json $(GO) test -run TestWriteGassyfsBenchJSON -count=1 .
	@echo "-- wrote BENCH_gassyfs.json"
	BENCH_JSON=$(CURDIR)/BENCH_scrub.json $(GO) test -run TestWriteScrubBenchJSON -count=1 ./internal/scrub/
	@echo "-- wrote BENCH_scrub.json"

# One-iteration smoke of the benchmark recorders for `make verify`:
# same code paths, tiny matrices, throwaway output files.
bench-json-smoke:
	@out=$$(mktemp); \
	BENCH_JSON=$$out BENCH_SMOKE=1 $(GO) test -run TestWriteBenchJSON -count=1 ./internal/sched/ || { rm -f $$out; exit 1; }; \
	BENCH_JSON=$$out BENCH_SMOKE=1 $(GO) test -run TestWriteCacheBenchJSON -count=1 ./internal/core/ || { rm -f $$out; exit 1; }; \
	BENCH_JSON=$$out BENCH_SMOKE=1 $(GO) test -run TestWriteAverBenchJSON -count=1 ./internal/core/ || { rm -f $$out; exit 1; }; \
	BENCH_JSON=$$out BENCH_SMOKE=1 $(GO) test -run TestWriteGassyfsBenchJSON -count=1 . || { rm -f $$out; exit 1; }; \
	BENCH_JSON=$$out BENCH_SMOKE=1 $(GO) test -run TestWriteScrubBenchJSON -count=1 ./internal/scrub/ || { rm -f $$out; exit 1; }; \
	rm -f $$out
