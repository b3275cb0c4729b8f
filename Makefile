# Tier-1 gate plus convenience targets. `make verify` is what CI (and the
# next contributor) should run before merging.

GO ?= go

.PHONY: verify fmt vet build test race chaos bench bench-compare bench-pairs bench-harness fuzz-seeds alloc-budgets profile bench-depth bench-smoke fuzz profile-smoke trace-smoke sched-smoke bench-obs

verify: fmt vet build race chaos profile-smoke trace-smoke sched-smoke bench-smoke bench-harness fuzz-seeds alloc-budgets

# Fail on any file gofmt would rewrite.
fmt:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# D6 + D10 self-healing gate: seeded fault injection (QP severs,
# dropped and delayed sends, dead trackers, lost map outputs) plus
# scripted whole-node death (kill mid-shuffle without revive, composed
# with transport faults, and kill-then-revive) and, since cache-resident
# partitions move by manifest + READ, what can happen to a published
# manifest (lease expiry, eviction and job removal under it, the same
# with seeded transport chaos on top), the serving-side convoy case
# (every write to one reducer device parked while another device fetches
# from the same tracker), and the copier's own clocks and shape (the
# request deadline under every idle setting, clean idle retirement and
# lazy redial, a loss notice ending a blacklist wait, and a host
# connection that runs exactly two goroutines while a chunk is parked on
# either half of the protocol), and running out of registered memory (a
# budget that refuses payload blocks partway through a cache-resident
# fetch: READs fall back to their ring slots, output intact, nothing
# pinned left behind), the verbs posting contract D22 rests on (a
# work request parked inside PostSend holds Destroy until it is let go),
# a batch of requests (D23) whose connection is severed on the
# first or the last of its payload writes (every request re-issued and
# answered exactly once, no staging block left), and registered map
# output (D24): an eager serve whose cached run is evicted and its slab
# span carved again between lookup and staging copy still stages the
# run's own bytes, and store borrowers racing writers that pin, demote
# and delete objects whose release scribbles over the bytes never see a
# mixed version, and the device receive pump that routes every answer
# (D25): a lease that never reads holds its depth of answers without
# stalling the other leases on the device, and a closed 4-node cluster
# leaves no goroutine behind, and the reused fetch arena (D26): a
# fetcher closed in mid-stream or cancelled on refill with a chunk parked
# in the fabric gives back a cleared arena the next fetcher takes, whose
# stream is byte-identical while the late answers end as strays, and the
# reduce task's grouping (D27): fed a stream that poisons every record as
# the Next after the following one starts, each Reducer call still sees
# exactly the reference grouping, all under the race detector.
# Seeds are fixed in the tests for reproducibility; set
# RDMAMR_CHAOS_SEED to sweep other fault interleavings of the
# multi-host acceptance run. -count=1 defeats the test cache so the
# gate always executes.
chaos:
	$(GO) test -race -count=1 -run 'TestCopierHealsFromSeveredQP|TestCopierRequestDeadlineReissues|TestCopierIdleRetirementRedialsLazily|TestCopierLossNoticeEndsAdmissionWait|TestCopierLegacyEscalationNoRetries|TestCopierSeededChaosMultiHost|TestCopierBlacklistSharedAcrossFetchers|TestPullCancelWhileBlockedOnRefill|TestRingReadArmEvictionChurn|TestReadAfterRemoveJobServesPinnedBytes|TestResponderStalledEndpointDoesNotStallOthers|TestPayloadBudgetExhaustedFallsBackIntact|TestBatchSeveredMidWriteReissuesOnce|TestEagerServePinsEvictedRun|TestConnPlaneStalledLeaseDoesNotStallOthers|TestClusterCloseLeavesNoGoroutines|TestArenaReuseAfterAbandonedFetch' ./internal/core/
	$(GO) test -race -count=1 -run 'TestStoreBorrowersAgainstWriters' ./internal/storage/
	$(GO) test -race -count=1 -run 'TestReduceGroupingReadsRecordsOnlyInTheirWindow' ./internal/mapred/
	$(GO) test -race -count=1 -run 'TestFetchArmReadSeededChaos' ./internal/shuffle/
	$(GO) test -race -count=1 -run 'TestFaultMatrix|TestNodeDeath|TestRecoveryExhaustionFailsJob|TestConnCacheChurnChaos' ./internal/faultinject/
	$(GO) test -race -count=1 -run 'TestNodeSchedule' ./internal/chaos/
	$(GO) test -race -count=1 -run 'TestDestroyWaitsForInFlightPost' ./internal/verbs/

# D7 observability gate: run a real profiled Sort on the OSU-IB engine,
# emit the shuffle report as JSON, re-parse it, and fail unless fetch
# spans, per-host latency, TTFB, and a nonzero shuffle/merge overlap all
# came out the other side. The JSON goes to /dev/null; the check verdict
# prints on stderr.
profile-smoke:
	$(GO) run ./cmd/mrsim -profile -profile-nodes 3 -profile-mb 2 -profile-reduces 3 -profile-json -profile-check >/dev/null

# D11 telemetry gate: run a real traced TeraSort, emit the Chrome
# trace-event JSON, and fail unless it is well-formed (balanced B/E
# lanes), spans at least two nodes, and shows every lifecycle phase
# (dispatch, map, fetch, merge, reduce) through the reduce commit.
trace-smoke:
	$(GO) run ./cmd/mrsim -trace -trace-nodes 3 -trace-rows 10000 -trace-reduces 3 -trace-check >/dev/null

# D12 multi-tenant gate: two concurrent TeraSorts on one real cluster —
# shared slot pool, fair-share dispatch, speculative maps, admission at
# max.running=2 — while a seeded chaos schedule kills a tracker mid-run.
# Fails unless both jobs commit byte-identical sorted output, exactly one
# node died, and the JobTracker's admission counters add up. Runs under
# the race detector: the scheduler is the most concurrent code we have.
sched-smoke:
	$(GO) run -race ./cmd/mrsim -sched -sched-check >/dev/null

# The repository's benchmark (benchmark/README.md): every workload
# untraced, the per-layer ladder, then every workload traced, built by
# run.sh from this checkout. One call is one side of one pair; a claimed
# gain needs ten alternating pairs of parent and change.
#   make bench SEED=1 OUT=/tmp/change.json
SEED ?= 1
OUT ?= bench-run.json
bench:
	bash benchmark/run.sh -seed $(SEED) -out $(OUT)

# B judged against A, metric by metric, with the bounds BENCHMARK.json
# fixes; exits non-zero when B is outside one.
#   make bench-compare A=/tmp/parent.json B=/tmp/change.json
bench-compare:
	bash benchmark/run.sh -compare $(A) $(B)

# What a claimed gain is judged by: N alternating pairs of the parent
# commit (unpacked under .bench_build/parent) and the working tree, per
# workload; prints both medians, the parent's quartiles and the wins for
# every end-to-end metric. About N × 80 s per workload.
#   make bench-pairs PARENT=fb459b3 N=10 WORKLOAD="terasort_osu shuffle_small" SEED=7
bench-pairs:
	PARENT="$(PARENT)" N="$(N)" WORKLOAD="$(WORKLOAD)" SEED="$(SEED)" bash scripts/bench-pairs.sh

# The benchmark harness's own tests (statistics, span accounting,
# compare verdicts); under a second. `race` runs them too, but may be
# served from the test cache; -count=1 makes this gate always execute.
bench-harness:
	$(GO) test -count=1 ./benchmark

# Every fuzz target's seed corpus as plain tests — the map-output
# equivalence oracle (D14), the stable-merge oracle (D15), the wire
# codecs and batch framing (D23) and the descriptor packer's equivalence
# with the eager packer — without the fuzzing engine and, like
# bench-harness, never from the cache.
fuzz-seeds:
	$(GO) test -count=1 -run '^Fuzz' ./internal/kv/ ./internal/shuffle/wire/ ./internal/core/

# Every allocation-budget test, never from the cache: D14's (collect →
# sort → encode, chunked HDFS writes, WriteRun, RunWriter, OverwriteOwned),
# D24's (SortBuffer.RunInto into a caller's buffer — the registered block
# a map output run is encoded into — allocates nothing),
# D16's (a store, block, map-output or responder read allocates nothing
# object-sized — the responder's row for each RDMA engine policy; the
# http servlet exactly one copy), D17's (a warm reduce fetch of 64 ×
# 4 KiB partitions allocates at most a sixteenth of what it delivers and
# one allocation a partition, and carves one slab block, its ring: a
# closed fetcher's arena and the responder's staging blocks are reused
# (D26), so a per-segment channel, a per-answer decode (D25) or a
# per-chunk staging carve that comes back fails; one of
# 16 × 1 MiB cached partitions takes no heap payload, carves at most
# 2 × maps + 1 payload blocks (D21) and stays under two payloads —
# TestPullSmallFetchAllocBudget / TestPullBulkFetchAllocBudget) and D7's
# disabled-obs zero, and closed HDFS writers' buffers reused by the next
# (TestWriterBuffersAllocBudget). A copy, a
# per-fetch slice or a leaked chunk buffer that comes back on the job data
# path fails here, in seconds, without a benchmark run. So does a
# receive repost that allocates: the SRQ and a QP's receive queue are
# rings, and reposting a consumed receive allocates nothing.
alloc-budgets:
	$(GO) test -count=1 -run 'AllocBudget|ZeroAllocs|TestWriteRunExactlySized|TestRunWriterAllocsPerRun|TestChunkedWritesMatchSingleWrite|TestReadFileAllocatesOnce|TestStoreOverwriteCopiesOwnedDoesNot|TestStoreGetBorrows' \
		./internal/kv/ ./internal/storage/ ./internal/hdfs/ ./internal/mapred/ ./internal/core/ ./internal/shuffle/httpshuffle/ ./internal/verbs/

# CPU and heap profiles of one engine's TeraSort at the benchmark's shape
# (pkg/rdmamr BenchmarkTeraSort: what terasort_osu / terasort_http time;
# ENGINE is osu, http or hadoopa), written next to the benchmark's own
# build products. The CPU profile also samples TeraValidate, which runs
# with the benchmark timer stopped (its checksum is a fifth of the
# samples on osu); focus on the job trackers' task workers for the job
# alone, the view the reduce-side copies of D27 were sized with. A
# memmove's samples there include the first touch of lines no one read
# before it: dropping that copy moves those samples, it does not remove
# them (D27), so price a copy by an A/B run, not by its samples.
#   make profile ENGINE=http && go tool pprof -top .bench_build/cpu.pprof
#   go tool pprof -focus 'jobTracker..worker' -top .bench_build/rdmamr.test .bench_build/cpu.pprof
#   go tool pprof -focus 'jobTracker..worker' -peek 'runtime.memmove$' .bench_build/rdmamr.test .bench_build/cpu.pprof
#   go tool pprof -sample_index=alloc_space -top .bench_build/mem.pprof
ENGINE ?= osu
profile:
	@mkdir -p .bench_build
	$(GO) test -run '^$$' -bench 'BenchmarkTeraSort/$(ENGINE)$$' -benchtime 10x -o .bench_build/rdmamr.test \
		-outputdir .bench_build -cpuprofile cpu.pprof -memprofile mem.pprof ./pkg/rdmamr

# D7 overhead proof: the disabled-observability copier hot path must not
# allocate (0 B/op) or read the clock; the Enabled pair prices what a
# live profile + trace costs per chunk.
bench-obs:
	$(GO) test -run=NONE -bench='ObsOverheadDisabled|ObsOverheadEnabled' ./internal/core/

# One-iteration smoke pass over the go-test benchmarks that are left
# (chunk-path allocations, ring depth, the D13 connection-scaling
# model): the gate is that the harnesses build and run, not the numbers.
bench-smoke:
	$(GO) test -run=NONE -bench='FetchChunkAllocs' -benchtime=1x ./internal/core/
	$(GO) test -run=NONE -bench='AblationOutstandingDepth|AblationConnScale' -benchtime=1x .

# D5 ablation: copier outstanding-request depth (bounce-buffer ring).
bench-depth:
	$(GO) test -run=NONE -bench=AblationOutstandingDepth .
	$(GO) test -run=NONE -bench=FetchChunkAllocs ./internal/core/

# Short fuzz pass over every fuzz target: the shuffle wire codecs and
# batch framing (D23), the map-side collect buffer (kv.SortBuffer against
# the stable-sort reference, D14), the k-way merge (kv.Merger against a
# stable sort of its sources, D15) and the descriptor packer against the
# eager one.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzSortBuffer -fuzztime=10s ./internal/kv/
	$(GO) test -run=NONE -fuzz=FuzzMerger -fuzztime=10s ./internal/kv/
	$(GO) test -run=NONE -fuzz=FuzzDecodeDataRequest -fuzztime=10s ./internal/shuffle/wire/
	$(GO) test -run=NONE -fuzz=FuzzDecodeDataResponse -fuzztime=10s ./internal/shuffle/wire/
	$(GO) test -run=NONE -fuzz=FuzzDecodeReadManifest -fuzztime=10s ./internal/shuffle/wire/
	$(GO) test -run=NONE -fuzz=FuzzDecodeLeaseRelease -fuzztime=10s ./internal/shuffle/wire/
	$(GO) test -run=NONE -fuzz=FuzzTakeString -fuzztime=10s ./internal/shuffle/wire/
	$(GO) test -run=NONE -fuzz=FuzzSplitBatch -fuzztime=10s ./internal/shuffle/wire/
	$(GO) test -run=NONE -fuzz=FuzzPackDescriptorsEquivalence -fuzztime=10s ./internal/core/
