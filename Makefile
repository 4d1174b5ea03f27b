# Development targets. `make tier1` is the gate every change must keep
# green; `make race` is the heavier concurrency tier CI runs on top, and
# `make drift` guards live-cluster/simulator protocol equivalence.

GO ?= go

.PHONY: all tier1 vet check race short-race fuzz chaos bench bench-all bench-selftest drift obs timeline tenants failover clean

all: tier1

# Tier 1: the baseline build-and-test gate.
tier1:
	$(GO) build ./...
	$(GO) test ./...

# The second line vets the files built only with GOEXPERIMENT=synctest
# (the virtual-time tests, which tier 1 does not compile); the third
# type-checks a big-endian target, the only kind of build that compiles
# internal/wire's portable codecs (f32_portable.go), and a non-amd64 one,
# which is what compiles internal/tensor's Go-only kernels (add_other.go,
# scan_other.go, merge_other.go); on amd64 the first line's asmdecl pass checks the
# assembly kernels' frames against their Go declarations; the last fails
# if gofmt would change any file, bench/ included.
vet:
	$(GO) vet ./...
	GOEXPERIMENT=synctest $(GO) vet ./...
	GOARCH=s390x $(GO) vet ./internal/wire ./internal/tensor
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then echo "gofmt -l reports:"; echo "$$unformatted"; exit 1; fi

# Check tier: the protocol machines under every delivery schedule at small
# scope. Today that is Algorithm 3 — 2 and 3 workers, FusionWidth 1 and 2,
# every interleaving of the per-connection queues, and the aggregator's
# merge against the scalar fold under every FIFO-consistent delivery order
# of random packetizations; -v prints the states and schedules covered.
check:
	$(GO) test -run 'TestSparseScheduleExhaustive|TestSparseMergeMatchesFold' -v ./internal/protocol/

# Race tier: vet, the small-scope schedule check, the observability/
# leak-audit suite, the timeline pipeline, the multi-tenant tier, the
# elastic-membership failover tier, the benchmark module's own tests, then
# the full test suite under the race detector with the virtual-time tests
# built in, and the drift grid in virtual time twenty times over (it is
# deterministic there, so one failure in twenty is a bug).
race: vet check obs timeline tenants failover bench-selftest
	GOEXPERIMENT=synctest $(GO) test -race ./...
	GOEXPERIMENT=synctest $(GO) test -race -run 'TestSubstrateEquivalenceBubble' -count=20 ./internal/netsim/simproto/

# bench/ is a nested module (omnireduce/bench), so `./...` from the root
# never reaches it: a library API change can break the repository's
# benchmark without tier 1 noticing. This builds, vets and smoke-tests it.
bench-selftest:
	cd bench && $(GO) vet . && $(GO) test -short .

# Failover tier: elastic membership and aggregator handoff. The protocol
# view/epoch machine traces and the mirror-built-successor sweeps (a kill
# after every delivery, a frame behind, two behind, double failover,
# reliable mode between collectives only), what each mode commits (every
# round versioned, final results reliable, and a finals-only successor
# equal to one built from every round), the mirror frame format, the
# standby's frames per live op, its admission rules and its fuzz seeds, a
# standby behind a lossy link, the live chaos-kill end-to-end (an
# aggregator dies mid-collective, a standby is activated, results stay
# bit-exact), the sparse multi-aggregator routing regression, the
# watchdog's one-period grace after a rebind, the stall watchdog over both
# formats, view changes racing collectives and job control, the simulator's
# kill-before-every-event sweep and the sim-vs-live failover drift test —
# all under the race detector, the two kill tests twenty times over (their
# kill point is protocol-defined, so one failure in twenty is a bug, not
# bad luck).
failover:
	$(GO) test -race -run 'TestView|TestFailoverPumpHandoff|TestCheckpoint|TestBootstrapElisionFailover|TestMirror|TestReliableFailoverBetweenCollectivesOnly|TestCommitMarksResumableResults|TestReliableFinalsOnlySuccessor' ./internal/protocol/ ./internal/wire/
	$(GO) test -race -run 'TestStandby|FuzzStandbyFrame|TestFailoverLossyStandbyLink|TestSparseLiveMultiAggregator|TestRebindGraceSuppressesOnePeriod|TestStallWatchdog|TestViewChangeDuringOps' -v ./internal/core/
	$(GO) test -race -run 'TestFailoverSimEveryEvent' ./internal/netsim/simproto/
	$(GO) test -race -run 'TestFailoverLiveChaosKill' -count=20 ./internal/core/
	$(GO) test -race -run 'TestFailoverDriftLiveVsSim' -count=20 ./internal/netsim/simproto/

# Multi-tenant tier: the job registry and DRR scheduler suites, the
# fairness/isolation/drain end-to-end tests (multiplexed jobs must be
# bit-identical to solo runs, quotas must reject typed, drain must finish
# in-flight rounds with balanced buffer pools), and the 30-second
# starvation soak that bounds a quiet tenant's p95 latency while a noisy
# tenant floods the aggregator.
tenants:
	$(GO) test -race ./internal/tenant/
	$(GO) test -race -run 'TestControl' ./internal/wire/
	$(GO) test -race -run 'TestMultiJob|TestJobsDoNotDisturb|TestMaxJobsQuotaTyped|TestMaxInFlightOpsQuotaTyped|TestTidCollisionRejected|TestNamespaceSquattingRejected|TestAggregatorDrain|TestJobReopenAfterClose|TestSparseJobCollective' ./internal/core/
	OMNIREDUCE_SOAK=1 $(GO) test -race -run 'TestStarvationSoak' -v -timeout 10m ./internal/core/

# Observability tier: the obs package plus the race-enabled leak-audit and
# receive-pump suites — every pooled GetBuf must be matched by a PutBuf
# across teardown, overflow must not stall the pump, and the disabled
# trace path must stay allocation-free.
obs:
	$(GO) test -race ./internal/obs/
	$(GO) test -race -run 'TestEndOpDrainsQueuedMessages|TestRecvPumpOverflowDoesNotStallOtherOps|TestReliableOverflowFailsOp|TestBadPacketsCountedAndRecycled|TestChaos' ./internal/core/
	$(GO) test -race -run 'TestNetworkCloseReclaimsQueuedBuffers|TestNetworkSendAfterPeerClose|TestNetworkConcurrentSendClose|TestTCPCloseDrainsRecvQueue|TestPoolBalanceCounts' ./internal/transport/
	$(GO) run ./cmd/obsreport -o ""

# Timeline tier: the chaos example with flight-recorder dumps enabled,
# merged and rendered by tracetool, gated on its health checks — positive
# slot occupancy, every round completed, and the measured look-ahead skip
# ratio within 1% of the generated workload's exact expectation.
timeline:
	@dir=$$(mktemp -d) && \
	( $(GO) run ./examples/lossynet -dump-dir $$dir && \
	  $(GO) run ./cmd/tracetool -check -o $$dir/timeline.json $$dir/flight.json ); \
	rc=$$?; rm -rf $$dir; exit $$rc

# Quick race pass: skips the long-running scenarios (-short), for local
# iteration.
short-race: vet
	$(GO) test -race -short ./...

# Chaos suite only: the seeded fault-injection end-to-end tests.
chaos:
	$(GO) test -race -run 'TestChaos' -v ./internal/core/ ./internal/transport/

# Continuous fuzzing of the zero-block, bitmap-scan, AddF32 and MergeRuns
# kernels (the scan against the per-element oracle on long, mostly-zero
# tensors whose full words reach the AVX2 word kernel; AddF32 and the
# two-chain sorted-run merge against their portable Go loops, bit for
# bit), of the key-value aggregator's merge (against the scalar
# arrival-order fold, bit for bit, on ±0, denormals, ±Inf and NaN
# payloads, over any packetization and delivery order) and of
# everything decoded off the
# network (FUZZTIME to override): the data decoders, the view and
# control planes, and the standby's mirror-frame handler. The data targets
# hold the view decoders to the copying ones at buffer offsets 0-3; all
# decoder targets are built with checkptr so that a view reaching outside
# its message is a crash, not a wrong value.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzZeroBlock -fuzztime $(FUZZTIME) ./internal/tensor/
	$(GO) test -run '^$$' -fuzz FuzzComputeBitmap -fuzztime $(FUZZTIME) ./internal/tensor/
	$(GO) test -run '^$$' -fuzz FuzzAddF32 -fuzztime $(FUZZTIME) ./internal/tensor/
	$(GO) test -run '^$$' -fuzz FuzzMergeRuns -fuzztime $(FUZZTIME) ./internal/tensor/
	$(GO) test -run '^$$' -fuzz FuzzSparseMerge -fuzztime $(FUZZTIME) ./internal/protocol/
	$(GO) test -gcflags=-d=checkptr -run '^$$' -fuzz FuzzDecodePacket -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -gcflags=-d=checkptr -run '^$$' -fuzz FuzzDecodeSparsePacket -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -gcflags=-d=checkptr -run '^$$' -fuzz FuzzDecodeView -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -gcflags=-d=checkptr -run '^$$' -fuzz FuzzDecodeControl -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -gcflags=-d=checkptr -run '^$$' -fuzz FuzzStandbyFrame -fuzztime $(FUZZTIME) ./internal/core/

# Bench tier: the wall-clock datapath benchmarks with allocation stats,
# recorded to BENCH_datapath.json (baseline preserved across reruns) so
# the perf trajectory is tracked across PRs. Repeated runs (-count=3 on
# the live collectives and the wire and tensor microbenches) record the
# best observed value per metric, which filters scheduler and GC noise on
# shared boxes. BenchmarkAllReduceLive also records wire-B/op (the workers'
# encoded bytes per operation), and BenchmarkPacketShape's FusionWidth x
# Streams sweep is recorded with them: it is the evidence behind
# protocol.Defaults' packet shape, so a change of default starts as a rerun.
# The key-value path has four rungs: BenchmarkAllReduceSparseLive (the
# live Algorithm 3 collective), BenchmarkSparseMerge (the aggregator's
# merge and flush alone, MB/s over the pairs merged),
# BenchmarkSparseWorkerStep (a pooled worker machine's whole collective
# over view-decoded result chunks, ns per collective) and
# BenchmarkMergeRuns (the two-chain merge kernel alone at the live op's
# first merge, 8 192 + 8 192 pairs), all gated.
# BenchmarkCheckpointTax records what a standby costs a dense collective
# when nothing fails (tax-x, mirrored over plain, rounds interleaved) in a
# row per mode, and benchjson fails the tier if either exceeds 2 or the
# reliable row, whose primary mirrors final results only, exceeds 1.15;
# BenchmarkMirrorFrame is one mirror frame at the live shape (the primary's
# AppendCheckpoint and the standby's decode and AdoptResult, ns per frame,
# gated, 0 allocs/op); BenchmarkTracerOverhead records
# what a live flight recorder costs the same way (tracer-x, traced over
# untraced median round on one cluster), failing above 1.05. benchjson
# also gates the pinned benchmark families against the previous
# recording: >10% growth in
# allocs/op or >35% loss in MB/s (throughput is the noisier metric) fails
# the tier. Of the decoders, the copying DecodePacketInto and the live
# path's DecodePacketView are gated; the allocating DecodePacket is
# recorded only (it measures the collector). Three rungs at the live shape
# explain the dense floor and are gated too: BenchmarkAggregatorStep (one
# round of view decodes and aggregator machine steps at Defaults()' 32 x 4
# with 2 workers, ns/op = ns per round), BenchmarkPacketDecodeViewCold (a
# 32 x 256 packet from a set larger than L2; the DecodePacketView prefix
# gates it) and BenchmarkDenseAdd's block=256 and span=4MiB rows. The
# scan's rung at the live shape is BenchmarkComputeBitmap's
# elems=1Mi,bs=256,blocksparsity=0.99,scans=2 row (two 4 MiB tensors
# scanned at once, as sparse99_chan's two workers do), under the same gate.
bench:
	( $(GO) test -run '^$$' -bench '^(BenchmarkAllReduceLive|BenchmarkAllReduceTCPLive|BenchmarkMultiJobLive)$$' -benchmem -benchtime 5x -count=3 . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkAllReduceSparseLive$$' -benchmem -benchtime 50x -count=3 . ; \
	  $(GO) test -run '^$$' -bench '^(BenchmarkSparseMerge|BenchmarkSparseWorkerStep|BenchmarkAggregatorStep)$$' -benchmem -count=3 ./internal/protocol/ ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkAllReduceUDPLive$$' -benchmem -benchtime 10x . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkPacketShape$$' -benchmem -benchtime 50x -count=3 . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkFailoverHandoff$$' -benchtime 5x . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkCheckpointTax$$' -benchtime 50x -count=3 . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkMirrorFrame$$' -benchmem -count=3 ./internal/core/ ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkTracerOverhead$$' -benchmem -benchtime 30x -count=3 . ; \
	  $(GO) test -run '^$$' -bench '^(BenchmarkPacketEncode|BenchmarkPacketDecode|BenchmarkPacketDecodeInto|BenchmarkPacketDecodeView|BenchmarkPacketDecodeViewCold)$$' -benchmem -count=3 ./internal/wire/ ; \
	  $(GO) test -run '^$$' -bench '^(BenchmarkComputeBitmap|BenchmarkDenseAdd|BenchmarkMergeRuns)$$' -benchmem -count=3 ./internal/tensor/ ) \
	| $(GO) run ./cmd/benchjson -o BENCH_datapath.json \
	    -gate 'BenchmarkAllReduceLive,BenchmarkAllReduceSparseLive,BenchmarkSparseMerge,BenchmarkSparseWorkerStep,BenchmarkAggregatorStep,BenchmarkMirrorFrame,BenchmarkPacketEncode,BenchmarkPacketDecodeInto,BenchmarkPacketDecodeView,BenchmarkComputeBitmap,BenchmarkDenseAdd,BenchmarkMergeRuns' \
	    -gate-pct 10 -gate-mbs-pct 35
	$(GO) run ./cmd/obsreport -o OBS_datapath.json

# Full benchmark sweep (paper figures + wall clock), single iteration.
bench-all:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# Drift tier: vet plus the substrate-equivalence test — live channel
# cluster vs the discrete-event simulator must produce identical
# per-worker packet, block, and byte counts and bit-identical results,
# loss-free and under loss (the live fabric and the simulator share one
# fault decision function). Its key-value rows run Algorithm 3 on both
# (loss-free, since the mode is reliable-only); the aggregator sums those
# in arrival order, so rows of more than two workers use integer values,
# whose sums are exact in any order. The grid runs twice: on the wall clock, and
# with the live cluster in a synctest bubble, where both substrates wake
# workers by one timer rule in virtual time and every row is held to
# every counter (DESIGN.md §5). TestRetransmitAtMachineDeadline checks
# that rule on the live driver alone. Together: live ≡ simulator.
drift:
	$(GO) vet ./...
	GOEXPERIMENT=synctest $(GO) test -run 'TestSubstrateEquivalence' -v ./internal/netsim/simproto/
	GOEXPERIMENT=synctest $(GO) test -run 'TestRetransmitAtMachineDeadline' -v ./internal/core/

clean:
	$(GO) clean -testcache
