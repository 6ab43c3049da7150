# CI entry points for the qwm repository. `make ci` is the gate a change
# must pass: a gofmt check over every tracked Go file, vet, build, vet and tests of the benchmark harness (perfbench,
# which compiles against the engine API), the targeted observability race
# suite, the full test suite under the race detector, the trace-export and
# ops-server lifecycle smokes, a short fuzz pass over every wire-format
# parser, the HTTP service smoke (200 + schema-valid response bit-identical
# to an in-process run, 429 backpressure under a flooded queue, refused
# requests and budgets, warm-disk restart, chaos through POST /analyze),
# the distributed-tracing smoke
# (two replicas, one traced request, merged cross-process trace +
# deterministic export), a smoke run of the STA-parallel, solver-kernel,
# observed-analyze, warm-cache, hot-path wide, re-analysis-after-edit,
# warm-disk-service and warm-off-peer benchmarks, a small-budget QWM-vs-SPICE
# stage sweep, and the remote-cache gates (remote-smoke): the two-replica
# shared-tier smoke, the per-level read budget, network chaos, the breaker's
# trajectory and its cost against a dead peer, the batch corruption and
# write-behind breaker tests plus the kill/restart race tests, untraced and
# traced, and a dead peer costing one deadline per read. check-run-names
# fails when a name in one of those -run lists, or a -bench or -fuzz
# pattern of the benchmark and fuzz smokes, no longer names a test,
# benchmark or fuzz target of its package. The engine's fault-injection ladder (TestLadder) and
# re-analysis-after-edit (TestIncrementalMatchesScratch) gates are
# internal/sta tests, run by `race-obs` and `race`.
#
# The benchmark smoke only checks that the go-test benchmarks run.
# Performance is recorded and compared in one place: the perfbench harness
# declared by BENCHMARK.json (`bash perfbench/run.sh`, compared with
# `perfbench/steady.py --compare`).

GO ?= go

.PHONY: ci fmt-check vet build bench-build test race race-obs trace-smoke trace-smoke-distributed leak-check fuzz-smoke service-smoke bench bench-full verify verify-full remote-smoke check-run-names loc

ci: fmt-check vet build check-run-names bench-build race-obs race trace-smoke trace-smoke-distributed leak-check fuzz-smoke service-smoke remote-smoke bench verify

# vet accepts unformatted code; this gate does not. It only reads: gofmt -l
# lists the tracked Go files (perfbench's included) whose formatting differs.
fmt-check:
	@files="$$(gofmt -l $$(git ls-files '*.go'))"; \
	test -z "$$files" || { echo "fmt-check: gofmt would reformat:"; echo "$$files"; exit 1; }

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The benchmark harness (perfbench/, its own module) compiles against the
# engine's API; vet and test it so an API change breaks CI, not the next
# benchmark run.
bench-build:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

test:
	$(GO) test ./...

# The race detector covers the concurrent layers (sta worker pool, qwm
# scratch pool, the tiers' write-behind queues) along with everything else.
race:
	$(GO) test -race ./...

# Targeted race pass over the concurrency-critical packages: the sta worker
# pool delivering concurrent StageEval events (now including the degradation
# ladder and its recover isolation) and per-request evaluation counts of
# concurrent analyses on one analyzer, the metrics registry (one RWMutex
# over its maps), the flight recorder (one mutex, synchronous Record), and
# the fault injector shared by every worker during chaos runs. Fast enough
# to run first, before the full race sweep.
race-obs:
	$(GO) test -race ./internal/sta/... ./internal/obs/... ./internal/faultinject/...

# Trace-export smoke: trace a full decoder analysis, validate the exported
# Chrome trace (balanced spans nested in the analysis, one eval span per
# work item with cache, tier and solver args, more than one worker lane,
# and the engine's span IDs, parents, attributes and lanes against an
# observer's view of the same run), check that each level span covers
# exactly its sta/time/level_seconds interval with its evals and tier
# probes inside, and assert the deterministic rendering is byte-identical
# at Workers 1 and 8; plus the export's own wall-clock,
# schedule-independence and mid-analysis freeze tests, and the service's
# deterministic export of a traced 2-bit decoder request against its golden.
trace-smoke:
	$(GO) test -run 'TestTraceDecoderSmoke|TestEngineSpanTree|TestTraceLevelSpansMatchLevelSeconds|TestTraceDeterministicWorkersByteIdentical' -count=1 ./internal/sta/
	$(GO) test -run 'TestTraceWallClockExport|TestTraceDeterministicByteIdentical|TestTraceIncompleteAnalysis' -count=1 ./internal/obs/
	$(GO) test -run 'TestTraceDeterministicGolden' -count=1 ./internal/service/

# Distributed-tracing smoke: replica A answers warm off replica B's cache
# plane and the flight-recorded trace must contain spans from BOTH
# processes (the merged cross-replica trace), plus the deterministic export
# must be byte-identical at engine Workers 1 and 8.
trace-smoke-distributed:
	$(GO) test -race -run 'TestDistributedTraceMergesPeerSpan|TestTraceDeterministicAcrossWorkers|TestTraceEnvelopeAndRecorder' -count=1 ./internal/service/

# Lifecycle gate: repeated ops-server Start/Shutdown cycles must join the
# serve goroutine and leak nothing, and the flight recorder, which starts
# no goroutine, must leave none behind across concurrent Close calls.
leak-check:
	$(GO) test -run 'TestServerStartShutdownNoLeak|TestFlightCloseIdempotentNoLeak' -count=1 ./internal/obs/

# Fuzz smoke: 10 s of coverage-guided fuzzing per wire-format parser — the
# trace headers a client or peer sends (traceparent, Qwm-Span), the flight
# recorder's span record codec, the netlist
# deck, card tokenizer and value parsers (the deck parser, tokenizer and
# value parser against their previous implementations), the disk/remote-tier entry and
# record codecs,
# the remote tier endpoint (any method, path and batch body), the v1 front
# door (any body of at most 4 KiB through POST /analyze: no panic, no 5xx,
# always a v1 envelope) and the delay-cache
# key derivation (equal keys exactly when the stage content is equal) —
# starting from the checked-in corpora under
# each package's testdata/fuzz/. A crasher is written there and fails the
# target.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePeerSpan$$' -fuzztime 10s ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzParseTraceparent$$' -fuzztime 10s ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzTraceRecord$$' -fuzztime 10s ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/netlist/
	$(GO) test -run '^$$' -fuzz '^FuzzParseValue$$' -fuzztime 10s ./internal/netlist/
	$(GO) test -run '^$$' -fuzz '^FuzzSplitCard$$' -fuzztime 10s ./internal/netlist/
	$(GO) test -run '^$$' -fuzz '^FuzzParseMatchesRef$$' -fuzztime 10s ./internal/netlist/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEntry$$' -fuzztime 10s ./internal/sta/diskcache/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime 10s ./internal/sta/diskcache/
	$(GO) test -run '^$$' -fuzz '^FuzzTierServe$$' -fuzztime 10s ./internal/sta/remotecache/
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyzeBody$$' -fuzztime 10s ./internal/service/
	$(GO) test -run '^$$' -fuzz '^FuzzCacheKey$$' -fuzztime 10s ./internal/sta/

# HTTP service smoke: POST /analyze of a decoder deck returns 200 with a
# schema-valid v1 envelope bit-identical to an in-process run of the same
# deck (cold evaluates, warm reports 0 evaluations), refused requests —
# negative or overflowing budgets included — answer 400 without opening a
# pooled analyzer, a deterministically flooded queue sheds with 429 +
# Retry-After, Close answers every admitted-but-unstarted request 429
# "server shutting down", refuses later ones and leaves no goroutine, a
# cache directory that cannot open leaks no remote-cache client, absurd device geometry answers 422, no string of a retained
# async response points into the request's deck (the copy-free parser's
# alias rule), a restarted server over a warm cache directory answers every
# arrival byte-identically, chaos requests are deterministic, conservative
# and isolated from the pool, a replica reading through a peer's cache plane
# evaluates nothing the peer already analyzed, with or without a cache
# directory on the peer, and refused tier requests open no disk namespace.
service-smoke:
	$(GO) test -race -run 'TestAnalyzeSingle|TestAnalyzeErrors|TestBackpressure429|TestCloseAnswersWaitingRequests|TestPoolDiskFailureLeaksNoRemoteClient|TestAnalyzeAbsurdGeometry422|TestRetainedResponseDoesNotAliasBody|TestWarmDiskRestartBitIdentical|TestChaosDeterministicAndIsolated|TestCachePlaneServesOwnAnalyses|TestTierRejectsOpenNoNamespace' -count=1 ./internal/service/

# One-iteration smoke of the go-test micro-benchmarks: the parallel STA
# engine at every worker width, the in-place linear-solver kernels, the
# whole-engine Thomas + Sherman–Morrison vs dense-LU ablation, the
# secant-capacitance second pass vs frozen capacitances, the
# observability-overhead comparison (bare vs observer vs metrics), the
# warm-cache lookup, the hot-path wide-netlist benchmark (reduction off vs
# on), re-analysis after an edit (fresh vs warm analyzer), the warm-disk
# service path, the warm service path untraced and traced (flight recorder
# + metrics), the two-replica request served warm from the peer (with its
# read and write round trips per op), the junction-table lookup against
# the exact junction model and the parse of the 4-bit decoder deck (the
# netlist.parse rung). It checks that they run; performance is measured by perfbench
# (BENCHMARK.json).
bench:
	$(GO) test -run '^$$' -bench 'STAParallel|SolverKernels|AblationTridiagVsLU|AblationFreezeCaps' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'AnalyzeObserved|WarmCacheLookup|STAWide|ReanalyzeAfterEdit' -benchtime 1x -benchmem ./internal/sta/
	$(GO) test -run '^$$' -bench 'ServiceWarmDisk|ServiceWarmTraced|ServiceWarmOffPeer' -benchtime 1x -benchmem ./internal/service/
	$(GO) test -run '^$$' -bench 'JunctionCQ' -benchtime 1x -benchmem ./internal/devmodel/
	$(GO) test -run '^$$' -bench 'ParseDecoder' -benchtime 1x -benchmem ./internal/netlist/

# Full benchmark sweep (regenerates every table/figure; slow).
bench-full:
	$(GO) test -run '^$$' -bench . -benchmem .

# Small-budget accuracy check, the stage sweep only: 25 seeded stage
# netlists timed by QWM and by the SPICE-class baseline. Exits non-zero when
# the median delay accuracy falls below 95 % or an engine errors.
verify:
	$(GO) run ./cmd/verify -seed 1 -n 25 -tol 10 -o /dev/null

# The acceptance-criteria sweep (200 cases, ~20 s): full JSON distribution
# on stdout.
verify-full:
	$(GO) run ./cmd/verify -seed 1 -n 200 -tol 10

# Remote-cache smoke, under the race detector: two in-process replicas share
# one tier server (the cold one must match a remote-disabled analyzer, the
# fresh one must answer warm: zero evaluations, >=90% remote hits,
# bit-identical results, at most one read request per dependency level),
# each network fault (latency, transport error, frame corruption), injected
# at rate 0.2 by a test transport keyed by cache key, leaves results
# bit-identical to a remote-disabled analyzer, the breaker walks its exact
# deterministic trajectory twice, a dead peer under a whole analysis costs at
# most the breaker threshold plus one probe per window, a read of a peer
# that never answers makes one round trip and waits one deadline, a
# corrupted frame in a batch read costs only its own key, a batch write
# stores exactly its valid frames, write-behind sends never move an open
# breaker, and concurrent analyses through the service's remote → disk
# tiers survive the remote server being killed and restarted mid-run
# without leaking a goroutine or moving a bit.
remote-smoke:
	$(GO) test -race -run 'TestTwoReplicasShareTier|TestWarmReplicaReadBudget|TestNetworkChaosBitIdentical|TestBreakerDeterministicTransitions|TestDeadPeerUnderEngine|TestDeadPeerOneAttemptPerRead|TestTierReadPartialCorruption|TestTierWriteMixedBatch|TestBreakerIgnoresWriteBehind|TestChainKillRestartRace|TestTracedGetMergesPeerSpan|TestTracedKillMidRequest' -count=1 ./internal/sta/remotecache/

# Every name in the -run lists of these targets must be a test, benchmark,
# fuzz target or example of the package the line runs, and every -bench or
# -fuzz pattern must match a benchmark or fuzz target there: `go test -run
# 'A|B'` passes silently when B was renamed away, and so do `-bench 'A|B'`
# and `-fuzz '^B$'`.
RUN_LIST_TARGETS = trace-smoke trace-smoke-distributed leak-check service-smoke remote-smoke bench fuzz-smoke

check-run-names:
	@cmds="$$($(MAKE) --no-print-directory -n $(RUN_LIST_TARGETS) | grep -e ' -run ' -e ' -bench ' -e ' -fuzz ')"; \
	test -n "$$cmds" || { echo "check-run-names: no -run, -bench or -fuzz lists found"; exit 1; }; \
	echo "$$cmds" | while read -r cmd; do \
		pkg=$${cmd##* }; \
		listed=$$($(GO) test -list . $$pkg) || exit 1; \
		checked=0; \
		for flag in run bench fuzz; do \
			names=$$(echo "$$cmd" | sed -n "s/.* -$$flag '\([^']*\)'.*/\1/p"); \
			case "$$flag:$$names" in run:'^$$'|*:) continue;; esac; \
			checked=1; \
			for name in $$(echo "$$names" | tr '|' ' '); do \
				case $$flag in \
				run) echo "$$listed" | grep -qxF "$$name";; \
				bench) echo "$$listed" | grep '^Benchmark' | grep -q -e "$$name";; \
				fuzz) echo "$$listed" | grep '^Fuzz' | grep -q -e "$$name";; \
				esac || { echo "check-run-names: $$pkg has no $$flag target $$name"; exit 1; }; \
			done; \
		done; \
		test $$checked = 1 || { echo "check-run-names: no quoted list in: $$cmd"; exit 1; }; \
	done

# Non-test and test Go line counts over the tracked files: the line budget
# ROADMAP and CHANGES.md track. Not part of ci.
loc:
	@echo "non-test $$(git ls-files '*.go' | grep -v '_test\.go$$' | xargs cat | wc -l)"
	@echo "test $$(git ls-files '*_test.go' | xargs cat | wc -l)"
