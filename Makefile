# Tier-1 gate plus convenience targets: `make verify` is what CI runs before a merge.

GO ?= go

.PHONY: verify fmt vet build test race chaos bench bench-compare bench-pairs bench-harness fuzz-seeds alloc-budgets profile fuzz profile-smoke trace-smoke sched-smoke

# The tier-1 gate: format, vet, build, every test under -race, chaos, the smokes, fuzz seeds and alloc budgets.
verify: fmt vet build race chaos profile-smoke trace-smoke sched-smoke bench-harness fuzz-seeds alloc-budgets

# Fail on any file gofmt would rewrite.
fmt:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# go vet over every package.
vet:
	$(GO) vet ./...

# Build every package.
build:
	$(GO) build ./...

# Every test, without the race detector.
test:
	$(GO) test ./...

# Every test under the race detector.
race:
	$(GO) test -race ./...

# Seeded fault-injection rows (D6, D10, D13, D19-D27) under -race; the test names are the list.
chaos:
	$(GO) test -race -count=1 -run 'TestCopierHealsFromSeveredQP|TestCopierRequestDeadlineReissues|TestCopierIdleRetirementRedialsLazily|TestCopierLossNoticeEndsAdmissionWait|TestCopierLegacyEscalationNoRetries|TestCopierSeededChaosMultiHost|TestCopierBlacklistSharedAcrossFetchers|TestPullCancelWhileBlockedOnRefill|TestRingReadArmEvictionChurn|TestReadAfterRemoveJobServesPinnedBytes|TestResponderStalledEndpointDoesNotStallOthers|TestPayloadBudgetExhaustedFallsBackIntact|TestBatchSeveredMidWriteReissuesOnce|TestEagerServePinsEvictedRun|TestConnPlaneStalledLeaseDoesNotStallOthers|TestClusterCloseLeavesNoGoroutines|TestClosedClusterFreesItsMemory|TestArenaReuseAfterAbandonedFetch' ./internal/core/
	$(GO) test -race -count=1 -run 'TestStoreBorrowersAgainstWriters' ./internal/storage/
	$(GO) test -race -count=1 -run 'TestReduceGroupingReadsRecordsOnlyInTheirWindow' ./internal/mapred/
	$(GO) test -race -count=1 -run 'TestFetchArmReadSeededChaos' ./internal/shuffle/
	$(GO) test -race -count=1 -run 'TestFaultMatrix|TestNodeDeath|TestRecoveryExhaustionFailsJob|TestConnCacheChurnChaos' ./internal/faultinject/
	$(GO) test -race -count=1 -run 'TestNodeSchedule' ./internal/chaos/
	$(GO) test -race -count=1 -run 'TestDestroyWaitsForInFlightPost' ./internal/verbs/

# D7: a profiled Sort on OSU-IB whose shuffle report must show fetch spans, per-host latency, TTFB and overlap.
profile-smoke:
	$(GO) run ./cmd/rdmamr profile -nodes 3 -mb 2 -reduces 3 -json -check >/dev/null

# D11: a traced TeraSort whose Chrome trace must be well-formed and show every phase on two or more nodes.
trace-smoke:
	$(GO) run ./cmd/rdmamr trace -nodes 3 -rows 10000 -reduces 3 -check >/dev/null

# D12: two TeraSorts on one cluster through a seeded node kill, under -race; both must commit identical output.
sched-smoke:
	$(GO) run -race ./cmd/rdmamr sched -check >/dev/null

# One side of one benchmark pair (benchmark/README.md), e.g. make bench SEED=1 OUT=/tmp/change.json
SEED ?= 1
OUT ?= bench-run.json
bench:
	bash benchmark/run.sh -seed $(SEED) -out $(OUT)

# B judged against A by BENCHMARK.json's bounds, e.g. make bench-compare A=parent.json B=change.json
bench-compare:
	bash benchmark/run.sh -compare $(A) $(B)

# N alternating parent/change pairs, how a gain is judged, e.g. make bench-pairs PARENT=<sha> N=10 SEED=1
bench-pairs:
	PARENT="$(PARENT)" N="$(N)" WORKLOAD="$(WORKLOAD)" SEED="$(SEED)" bash scripts/bench-pairs.sh

# The benchmark harness's own tests, never from the test cache.
bench-harness:
	$(GO) test -count=1 ./benchmark

# Every fuzz target's seed corpus as plain tests, never from the test cache.
fuzz-seeds:
	$(GO) test -count=1 -run '^Fuzz' ./internal/kv/ ./internal/shuffle/wire/ ./internal/core/

# Every allocation-budget test (D7, D14, D16, D17, D21, D24, D26), never from the test cache.
alloc-budgets:
	$(GO) test -count=1 -run 'AllocBudget|ZeroAllocs|TestWriteRunExactlySized|TestRunWriterAllocsPerRun|TestChunkedWritesMatchSingleWrite|TestReadFileAllocatesOnce|TestStoreOverwriteCopiesOwnedDoesNot|TestStoreGetBorrows' \
		./internal/kv/ ./internal/storage/ ./internal/hdfs/ ./internal/mapred/ ./internal/core/ ./internal/shuffle/httpshuffle/ ./internal/verbs/

# CPU and heap profiles of BenchmarkTeraSort/$(ENGINE) (osu, http or hadoopa) in .bench_build/; pprof views in the verify skill.
ENGINE ?= osu
profile:
	@mkdir -p .bench_build
	$(GO) test -run '^$$' -bench 'BenchmarkTeraSort/$(ENGINE)$$' -benchtime 10x -o .bench_build/rdmamr.test \
		-outputdir .bench_build -cpuprofile cpu.pprof -memprofile mem.pprof ./pkg/rdmamr

# Ten seconds of fuzzing per fuzz target.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzSortBuffer -fuzztime=10s ./internal/kv/
	$(GO) test -run=NONE -fuzz=FuzzMerger -fuzztime=10s ./internal/kv/
	$(GO) test -run=NONE -fuzz=FuzzDecodeDataRequest -fuzztime=10s ./internal/shuffle/wire/
	$(GO) test -run=NONE -fuzz=FuzzDecodeDataResponse -fuzztime=10s ./internal/shuffle/wire/
	$(GO) test -run=NONE -fuzz=FuzzDecodeReadManifest -fuzztime=10s ./internal/shuffle/wire/
	$(GO) test -run=NONE -fuzz=FuzzDecodeLeaseRelease -fuzztime=10s ./internal/shuffle/wire/
	$(GO) test -run=NONE -fuzz=FuzzTakeString -fuzztime=10s ./internal/shuffle/wire/
	$(GO) test -run=NONE -fuzz=FuzzSplitBatch -fuzztime=10s ./internal/shuffle/wire/
	$(GO) test -run=NONE -fuzz=FuzzChunkMarksMatchWalk -fuzztime=10s ./internal/core/
