GO ?= go

.PHONY: check vet staticcheck lint-obslog build test race chaos bench-harness bench-chaos bench-observability bench-statsplane bench-engineobs bench-migration bench-latency bench-recovery bench-adaptation bench

check: vet staticcheck lint-obslog build bench-harness chaos bench-statsplane bench-engineobs bench-migration bench-latency bench-recovery bench-adaptation

vet:
	$(GO) vet ./...

# staticcheck is optional: run it when the toolchain has it, otherwise
# skip with a note (the container image does not bundle it).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# Observability hygiene: internal packages log through obslog (leveled,
# journaled, rate-limited) — never straight to stdout/stderr. Fails on
# any log.Printf / fmt.Print / fmt.Printf / fmt.Println call site in
# non-test internal code.
lint-obslog:
	@bad=$$(grep -rnE '(log\.Printf|fmt\.Print(f|ln)?)\(' internal/ --include='*.go' | grep -v '_test\.go' || true); \
	if [ -n "$$bad" ]; then \
		echo "lint-obslog: use obslog instead of printf-style logging in internal/:"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@echo "lint-obslog: clean"
	@grep -nE 'time\.Now\(' internal/stream/compiled.go internal/stream/matchindex.go internal/stream/colbatch.go internal/operator/filter.go internal/engine/query.go \
		internal/engine/ring.go internal/operator/tail.go internal/operator/aggregate.go internal/operator/topk.go; rc=$$?; \
	if [ $$rc -eq 0 ]; then \
		echo "lint-obslog: no clock reads inside the predicate's evaluators, the relay's match index, the batch run (Query.runBatch/runTail and the operators' ProcessBatch) or the shard ring publish path (one timestamp pair per (query, batch), taken by the shard loop)"; \
		exit 1; \
	elif [ $$rc -ne 1 ]; then \
		echo "lint-obslog: a file the clock-free check names is gone: point it at the file that now holds the code"; \
		exit 1; \
	fi
	@echo "lint-obslog: kernels clock-free"
	@grep -nE 'time\.Now\(' internal/entity/adaptation.go internal/entity/entity.go; rc=$$?; \
	if [ $$rc -eq 0 ]; then \
		echo "lint-obslog: no clock reads in the delegation fan-out (ingest and its grouped feed; the engine stamps a batch once, on arrival) or the per-tuple route decision (Choose/emit); candidate delays come from trace span completions, off the hot path"; \
		exit 1; \
	elif [ $$rc -ne 1 ]; then \
		echo "lint-obslog: a file the fan-out clock-free check names is gone: point it at the file that now holds the code"; \
		exit 1; \
	fi
	@echo "lint-obslog: fan-out and route decision clock-free"
	@grep -rnE 'time\.NewTicker|time\.Tick\(' internal/engine internal/entity; rc=$$?; \
	if [ $$rc -eq 0 ]; then \
		echo "lint-obslog: no tickers in the engine or the entity: their work is driven by the batches handed to them, and periodic work belongs on the federation's control clock (f.every)"; \
		exit 1; \
	elif [ $$rc -ne 1 ]; then \
		echo "lint-obslog: the ticker check's directories are gone: point it at the engine and the entity"; \
		exit 1; \
	fi
	@echo "lint-obslog: engine and entity ticker-free"
	@grep -rnE '(^|[;{])[[:space:]]*go[[:space:]]|time\.NewTicker|time\.Tick\(' --include='*.go' --exclude='*_test.go' internal/dissemination; rc=$$?; \
	if [ $$rc -eq 0 ]; then \
		echo "lint-obslog: the relay owns no goroutine and no ticker: a link is a call, made on the goroutine that handed the relay its batch, and periodic work (the soft-state interest refresh) belongs on the federation's control clock (f.every)"; \
		exit 1; \
	elif [ $$rc -ne 1 ]; then \
		echo "lint-obslog: the files the relay goroutine check names are gone: point it at the directory that now holds the relay"; \
		exit 1; \
	fi
	@echo "lint-obslog: relay goroutine- and ticker-free"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The differential suite (ShardEngine at 1, 2 and 4 shards against the
# MiniEngine oracle) runs once more explicitly: it is the engine-swap
# proof obligation and must never be skipped by test caching. So does
# the fan-out differential (grouped feed against one feed per query,
# with placements racing ingest): the same obligation one layer up. And
# so do the tail's references (rebuild-and-sort top-k, rescanning
# min/max, recorded snapshots) and its allocation gate: the benchmark's
# oracle shares the operators, so only these tests can see them slip.
# And so do the one predicate's proofs: its three evaluators agree, and
# a federation delivers what a bare engine does when a batch holds NaN.
# And so do the match index's: Route agrees with the interpreted
# reference per (owner, tuple), and a relay whose registrations change
# under flowing batches routes the very next batch by the new ones.
# And so do the handoff's: a destination that already receives the
# stream (a lagging link, a whole group leaving) delivers every tuple
# once, a gate reopened in place keeps its reordered buffer, and no cut
# is not a cut at 0.
# And so do the proofs of who owns a batch (engine.Processor point 2):
# the contract test (a shard engine keeps the slice it is fed and only
# reads it, a reader beside it stays race-clean), the shared-batch test
# (one batch through gates, two engines and a frame at once), and the
# allocation gate, whose counts must be the same numbers under -race.
# And so do the relay's link contract: Publish returns after every
# matched child's Send has (quiescence rests on it), one publisher's
# batches keep their order on every link, publishers racing DropChild, a
# rewire and Close account every send as landed or failed, and a failed
# send counts as nothing relayed.
# And so do the proofs of the way out: a fragment chain on either engine,
# static and routed, delivers what one bare engine computes (an
# aggregate in the last fragment included), a boundary sends one frame
# per batch, and batches from two producers keep their order through a
# ring that no longer re-batches them (TestShardEnginePerProducerOrderPreserved,
# under TestShardEngine).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=1 -run 'TestShardEngine|TestEngineContract' ./internal/engine/
	$(GO) test -race -count=1 -run 'TestCompiledInterestEquivalence|TestColumnEvaluator|TestMatchIndexEquivalence|TestFederationMatchesBareEngineOnNaN' ./internal/stream/ ./internal/core/
	$(GO) test -race -count=1 -run 'TestTupleRoutingDifferential|TestFragmentChainMatchesBareEngine' ./internal/core/
	$(GO) test -race -count=1 -run 'TestRelayIndexFollowsRegistrations|TestRelayRegistrationsRaceBatches|TestRelayPublishReturnsAfterEverySend|TestRelayLinkKeepsPublishOrder|TestRelayPublishersRaceDropRewireClose|TestRelayFailedSendCountsNothingRelayed' ./internal/dissemination/
	$(GO) test -race -count=1 -run 'TestFanout|TestIngestAllocations|TestFrameDecodeErrorsCounted|TestFragmentBoundaryFramesPerBatch' ./internal/entity/
	$(GO) test -race -count=1 -run 'FuzzDecodeBatch|TestDecodeBatch' ./internal/stream/
	$(GO) test -race -count=1 -run 'TestHandoff|TestResumeInPlaceKeepsReorderedBuffer|TestNoCutIsNotCutZero|TestDrainQueryWaitsForAdmittedBatches' ./internal/core/ ./internal/entity/
	$(GO) test -race -count=1 -run 'TestTopK|TestTail' ./internal/operator/ ./internal/engine/

# benchmark/ is a nested module, so ./... above never compiles it: vet
# and test it here, or an engine API change breaks the end-to-end
# benchmark (BENCHMARK.json) unseen.
bench-harness:
	$(GO) vet -C benchmark ./... && $(GO) test -C benchmark ./...

# Chaos gate: the tier-1 suite under -race plus the seeded chaos bench,
# which fails if any tuple is silently lost after the federation
# self-heals. Regenerates BENCH_robustness.json.
chaos: race bench-chaos

bench-chaos:
	$(GO) run ./cmd/sspd-bench -chaos drop=0.05,dup=0.02,partition=2s,crash=1,seed=7 -chaos-out BENCH_robustness.json

# Regenerates BENCH_observability.json: tuple-path cost with tracing
# off / sampled / full, the disabled trace.Record microbench, and the
# /metrics scrape cost.
bench-observability:
	$(GO) run ./cmd/sspd-bench -observability BENCH_observability.json

# Appends the stats-plane costs (digest merge, journal append, tuple
# path with the plane on vs. off) into BENCH_observability.json. Fails
# if enabling the plane costs the tuple path more than 1%.
bench-statsplane:
	$(GO) run ./cmd/sspd-bench -statsplane BENCH_observability.json

# Appends the engine-introspection costs (tuple path through shard
# engines with the plane on vs. off) into BENCH_observability.json.
# Fails if enabling the plane costs the tuple path more than 1%.
bench-engineobs:
	$(GO) run ./cmd/sspd-bench -engineobs BENCH_observability.json

# Regenerates BENCH_migration.json: a windowed aggregate live-migrated
# around the cluster mid-stream on a jittery transport. Fails on any
# lost or duplicated tuple, or a handoff pause over the 250ms budget.
bench-migration:
	$(GO) run ./cmd/sspd-bench -migration BENCH_migration.json

# Regenerates BENCH_latency.json: the latency attribution plane's
# tuple-path overhead at 1/1024 span sampling, and the accuracy of the
# federated P99 against an exact sorted-delay oracle. Fails if the
# plane costs the tuple path more than 1% plus the run's measured noise
# or the federated P99 lands more than one log-bucket from the oracle.
bench-latency:
	$(GO) run ./cmd/sspd-bench -latency BENCH_latency.json

# Regenerates BENCH_recovery.json: 64 stateful queries hard-killed
# mid-stream and recovered from quorum-acked checkpoints. Fails on any
# lost or duplicated committed result, any stateless fallback, a
# crash-to-committed interval over 2s, or replay amplification over 2x
# the outage traffic.
bench-recovery:
	$(GO) run ./cmd/sspd-bench -recovery BENCH_recovery.json

# Regenerates BENCH_adaptation.json: tuple-routed downstream selection
# (the Adaptation Module loop) against the static-ordering baseline
# under a selectivity-drifting workload on a jittered link. Fails on
# any lost/duplicated result or when routing's PR_max improvement
# misses the noise-calibrated margin.
bench-adaptation:
	$(GO) run ./cmd/sspd-bench -adaptation BENCH_adaptation.json

# Every experiment table/figure (EXPERIMENTS.md).
bench:
	$(GO) run ./cmd/sspd-bench
