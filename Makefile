GO ?= go

.PHONY: check vet staticcheck lint-obslog lint-reach build test race fuzz bench-harness examples-smoke bench

check: vet staticcheck lint-obslog lint-reach build bench-harness race fuzz examples-smoke

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
		internal/engine/ring.go internal/operator/tail.go internal/operator/aggregate.go internal/operator/topk.go internal/stream/window.go; rc=$$?; \
	if [ $$rc -eq 0 ]; then \
		echo "lint-obslog: no clock reads inside the predicate's evaluators, the relay's match index, the batch run (Query.runBatch/runTail, the operators' ProcessBatch and the windows they push into) or the shard ring publish path (one timestamp per (query, batch), taken by the shard loop at each query boundary)"; \
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

# Ship only what runs: every function in internal/ is reached by a binary
# the repository ships (the cmd/ and examples/ mains and the benchmark),
# as the linker's dead-code pass decides, or is named with its test user
# in tools/reachcheck/allow.txt.
lint-reach:
	$(GO) run ./tools/reachcheck

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
# And so do the one predicate's proofs: its three evaluators agree —
# the column evaluator also over one shared key dictionary, and through
# filter chains that move between ColBatches and are reordered with their
# Stats held to the reference — and a federation delivers what a bare
# engine does when a batch holds NaN.
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
# allocation gate, whose frameless counts must be the same numbers under
# -race (a frame decodes into a pooled lease, which -race drops at random).
# And so do the relay's link contract: Publish returns after every
# matched child's Send has (quiescence rests on it), one publisher's
# batches keep their order on every link, publishers racing DropChild, a
# rewire and Close account every send as landed or failed, and a failed
# send counts as nothing relayed. And so does the transport's contract
# under it: SimNet keeps each sender's order under racing senders, blocks
# a sender on the receiver's queued bytes until the handler drains, and
# delivers what was queued before a Deregister; a TCP link does the same
# on its pending bytes, ships what queued during a write in the next
# write, and accounts every frame of a failed link as discarded. So do the proofs of who
# owns a payload on the wire: a handed payload arrives in the sender's
# backing array (also twice under duplicate and reorder faults), a lent
# one arrives intact after the caller overwrites its buffer, and a relay
# hands a fully matched batch on verbatim while its own encodes arrive
# as copies. And so do the control plane's: a reliable Send has its
# first transmission on the transport when it returns (Settle sees it),
# an endpoint re-created under an old ID is heard rather than taken for
# its predecessor's duplicates, and a relay that receives its child's
# unchanged registration neither re-registers nor rebuilds its index.
# And so do the registration's: a change an ancestor's aggregate already
# covers sends nothing above that ancestor (a relay does not resend an
# unchanged aggregate, while Refresh always sends), the interest codec's
# and the tuple codec's fuzzer seeds decode to the bytes they came from
# (a frame one step from a valid one is an error, and the frame layout is
# pinned), and the compiled
# Simplify leaves the very terms the map-based reference does.
# And so do the grouped feed's: a resolved id list is reused only while
# it holds the same ids and no registration has changed, and a
# steady-state grouped feed of keyed queries allocates nothing
# (TestShardEngineGroupedFeed*, under TestShardEngine).
# And so do the proofs of the way out: a fragment chain on either engine,
# static and routed, delivers what one bare engine computes (an
# aggregate in the last fragment included), a boundary sends one frame
# per batch, and batches from two producers keep their order through a
# ring that no longer re-batches them (TestShardEnginePerProducerOrderPreserved,
# under TestShardEngine).
# And so do the proofs of early filtering inside the entity: a remote
# processor's frame holds exactly the rows its head fragments want, and
# routed entities deliver what a bare engine does (TestFanout*); a join's
# filters never narrow what reaches its window, whether they would keep
# partners out or keep evictions from happening (TestFederationJoinInterest*).
# And so do the robustness gates, on the MiniEngine and a two-shard
# ShardEngine: chaos recovery, hard-kill recovery (64 queries at once),
# re-emission after the cut, migration chaos, a migration waiting out a
# checkpoint, the federated P99, and routing around a jittered replica.
# And the proofs that a recycled arena is read by nobody once its last
# holder has released it, run again with -tags arenapoison, which
# overwrites every arena on its last Release (stream.Lease) and every
# tail's result slab once its emit returns: the lease itself, the
# lent-result contract on both engines (TestLeasedFeed…), the
# fan-out and routing differentials, the fragment chain (whose
# boundaries feed results on lent), the engine's tail and shard
# differentials, the handoffs and migration chaos. The same tag makes
# PutEncodeBuffer overwrite every pooled encode buffer, so one wrongly
# handed to a transport that keeps it corrupts a delivery: the
# differentials above, the relay's verbatim forward and the transport's
# ownership tests catch it.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=1 -run 'TestShardEngine|TestEngineContract' ./internal/engine/
	$(GO) test -race -count=1 -run 'TestCompiledInterestEquivalence|TestColumnEvaluator|TestMatchIndexEquivalence|TestFederationMatchesBareEngineOnNaN' ./internal/stream/ ./internal/operator/ ./internal/core/
	$(GO) test -race -count=1 -run 'TestTupleRoutingDifferential|TestFragmentChainMatchesBareEngine|TestFederationJoinInterest' ./internal/core/
	$(GO) test -race -count=1 -run 'TestRelayIndexFollowsRegistrations|TestRelayRegistrationsRaceBatches|TestRelayCoveredInterestStopsAtAncestor|TestRelayPublishReturnsAfterEverySend|TestRelayLinkKeepsPublishOrder|TestRelayPublishersRaceDropRewireClose|TestRelayFailedSendCountsNothingRelayed|TestSimNetFIFOPerSender|TestSimNetSenderBlocksOnQueuedBytes|TestSimNetDeregisterDeliversQueued|TestTCPNetFIFOPerSender|TestTCPNetSenderBlocksOnQueuedBytes|TestTCPNetDeregisterWritesQueued|TestTCPNetCoalescesWhileWriting|TestTCPNetFailedLinkAccountsEveryFrame|TestSimNetHand|TestSimNetSend|TestRelayForwardsVerbatimWithoutCopy|TestReliableSendIsOnTheWireWhenItReturns|TestReliableNewIncarnationResetsReceiver|TestRelayRepeatedRegistrationChangesNothing' ./internal/dissemination/ ./internal/simnet/
	$(GO) test -race -count=1 -run 'TestFanout|TestIngestAllocations|TestFrameDecodeErrorsCounted|TestFragmentBoundaryFramesPerBatch' ./internal/entity/
	$(GO) test -race -count=1 -run 'FuzzDecodeBatch|TestDecodeBatch|TestDecodeFrameMalformed|TestFrameWireFormatPinned|FuzzDecodeInterestSet|TestDecodeInterestSet|TestSimplifyMatchesReference' ./internal/stream/
	$(GO) test -race -count=1 -run 'TestHandoff|TestResumeInPlaceKeepsReorderedBuffer|TestNoCutIsNotCutZero|TestDrainQueryWaitsForAdmittedBatches' ./internal/core/ ./internal/entity/
	$(GO) test -race -count=1 -run 'TestTopK|TestTail' ./internal/operator/ ./internal/engine/
	$(GO) test -race -count=1 -run 'TestChaosEndToEndRecovery|TestHardKillRecoveryZeroLoss|TestRecoveryReemitsResultsAfterTheCut|TestMigrationChaosStatefulZeroLoss|TestMigrationWaitsForCheckpointInFlight|TestLatencyAttributionFederation|TestTupleRoutingAvoidsJitteredReplica' ./internal/core/
	$(GO) test -race -tags arenapoison -count=1 -run 'TestLease|TestEncodeBufferPoisonedOnPut|TestTupleRoutingDifferential|TestFragmentChainMatchesBareEngine|TestFanout|TestTail|TestShardEngineDifferential|TestHandoff|TestMigrationChaosStatefulZeroLoss|TestRelayForwardsVerbatimWithoutCopy|TestSimNet' ./internal/stream/ ./internal/engine/ ./internal/entity/ ./internal/core/ ./internal/dissemination/ ./internal/simnet/

# The decoders of what comes off the network, fuzzed for 10 s each: a
# tuple batch (a frame, or the row form a checkpoint holds), an interest
# registration and an entity's addressed frame. Each must answer any
# bytes with a value or an error, and what decodes must re-encode to the
# bytes it came from. A failing input is written under the package's
# testdata/fuzz, where it stays as a regression seed.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime 10s ./internal/stream/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeInterestSet$$' -fuzztime 10s ./internal/stream/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFeedBatch$$' -fuzztime 10s ./internal/entity/

# benchmark/ is a nested module, so ./... above never compiles it: vet
# and test it here, or an engine API change breaks the end-to-end
# benchmark (BENCHMARK.json) unseen.
bench-harness:
	$(GO) vet -C benchmark ./... && $(GO) test -C benchmark ./...

# The crash path's one shipped caller: examples/churn hard-kills an
# entity with the failure detector and the checkpoint plane on, and exits
# non-zero unless the detector expels it and every one of its queries
# is recovered. examples/stockticker is the one shipped program that
# reads QueryGraph and runs Rebalance.
examples-smoke:
	timeout 120 $(GO) run ./examples/churn
	timeout 120 $(GO) run ./examples/stockticker

# Every experiment table/figure (EXPERIMENTS.md).
bench:
	$(GO) run ./cmd/sspd-bench
