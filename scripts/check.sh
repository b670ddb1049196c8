#!/usr/bin/env sh
# Repository gate: vet, build everything, then run the full test suite under
# the race detector. The kernel layer (internal/par) spawns goroutines inside
# numeric code, so -race is part of the definition of "passing" here, not an
# optional extra.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

# Every internal package documents its paper counterpart, public surface
# and concurrency/ownership contract in a doc.go (DESIGN.md cross-links
# into these). New packages must ship one.
echo "== package docs (internal/*/doc.go)"
for d in internal/*/; do
    if [ ! -f "$d/doc.go" ] || ! grep -q "^// Package $(basename "$d")" "$d/doc.go"; then
        echo "missing or malformed package doc: ${d}doc.go" >&2
        exit 1
    fi
done

# The exec wire is a hand-written binary format and carries only what the
# repo registers: a type without a tag or a codec is refused at encode. gob
# survives only in internal/exec/wire_test.go, as the differential oracle; a
# worker binary that links it has grown a second wire.
echo "== go list -deps ./cmd/worker has no encoding/gob"
if go list -deps ./cmd/worker | grep -qx 'encoding/gob'; then
    echo "cmd/worker links encoding/gob: the exec wire must not reach for reflection" >&2
    exit 1
fi

# Kernel parallelism borrows idle task slots (internal/par): there is no
# limit to set, and par.SetLimit survives as a no-op only for the frozen
# benchmark module. A call anywhere else is a program that believes it caps
# something.
echo "== no par.SetLimit / par.Limit outside bench/ and tests"
if grep -rn --include='*.go' -E 'par\.(SetLimit|Limit)\(' . | grep -v '^\./bench/' | grep -v '_test\.go:' | grep -vE ':[0-9]+:[[:space:]]*//'; then
    echo "par.SetLimit / par.Limit called outside bench/: kernel helpers borrow idle slots, there is no limit" >&2
    exit 1
fi

# The runtime and the fleet meet in one interface, exec.Backend: compss asks
# its backend nothing beyond it. A type assertion on the backend is a second,
# hidden contract — a capability a fake fleet would have to guess.
echo "== internal/compss does not type-assert its backend"
if grep -n -E 'Backend\.\(' $(ls internal/compss/*.go | grep -v '_test\.go$'); then
    echo "internal/compss type-asserts its backend: exec.Backend is the whole contract" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

# No architecture may fuse a product into a sum: arm64 compiles x*y + z to
# FMADDD unless an explicit float64(...) conversion rounds the product
# first, and fused code computes other bits than amd64 — other kernels,
# other synthetic recordings, other SMO steps — which would break
# local/remote bit-identity on a mixed-architecture fleet. The compiler's
# listing of every package must hold no fused instruction (a cached build
# replays the listing), and the Go path of mat, the one every architecture
# but amd64 runs, must vet clean there.
echo "== GOARCH=arm64: no fused multiply-add in ./..."
listing=$(GOARCH=arm64 go build -gcflags=-S ./... 2>&1) || {
    GOARCH=arm64 go build ./... # prints the build errors alone
    exit 1
}
fused=$(echo "$listing" | grep -E '[[:space:]](FMADDD|FMSUBD|FNMADDD|FNMSUBD)[[:space:]]' || true)
if [ -n "$fused" ]; then
    echo "fused multiply-add on arm64; round the product with float64(...):" >&2
    echo "$fused" >&2
    exit 1
fi
echo "== GOARCH=arm64 go vet ./internal/mat/"
GOARCH=arm64 go vet ./internal/mat/

echo "== go test -race ./..."
go test -race ./...

# The fault-tolerance layer retries attempts concurrently with nested
# submission and slot hand-back in Get, the trace golden test asserts the
# exported shape is schedule-independent, the eddl training loop runs on
# pooled scratch shared across workers, and the exec backend multiplexes
# worker connections from many dispatch goroutines; run these packages
# twice under the race detector to shake out ordering-dependent bugs a
# single pass can miss.
echo "== go test -race -count=2 ./internal/compss/... ./internal/cluster/... ./internal/trace/... ./internal/eddl/... ./internal/exec/..."
go test -race -count=2 ./internal/compss/... ./internal/cluster/... ./internal/trace/... ./internal/eddl/... ./internal/exec/...

# Every decoder that faces a socket is fuzzed: arbitrary bytes must cost an
# error — no panic, no allocation sized by a length prefix — and whatever
# decodes must re-encode to the same bytes. So is the provenance import: an
# accepted record must survive the graph's analyses and write back to the
# same tasks. So are mat's AVX kernels: arbitrary float64 bit patterns must
# give the Go loops' bits through Dot, Axpy and the MulABt panel. So is the
# split search: a tree grown on arbitrary float64 bit patterns, labels and
# bootstrap repeats must be the reference's, node for node. So is the
# forest's jump-ahead source: any seed and any mix of draws must give
# math/rand's stream. So is the sync floor: any program of submits, Gets,
# WaitAlls, Barriers and nested bodies on Main() must record the deps a
# map-based model of the floor rule gives. Ten seconds per target on top of
# the seed corpus the unit run above already replayed.
for spec in FuzzDecodeValue:./internal/exec/ FuzzDecodeFrame:./internal/exec/ FuzzReadProvenance:./internal/graph/ FuzzKernelsMatchGo:./internal/mat/ FuzzBuildTreeMatchesReference:./internal/forest/ FuzzSourceMatchesMathRand:./internal/randsrc/ FuzzFloorMatchesModel:./internal/compss/; do
    target=${spec%%:*} pkg=${spec#*:}
    echo "== go test -run=NONE -fuzz=$target -fuzztime=10s $pkg"
    go test -run=NONE -fuzz="^$target\$" -fuzztime=10s "$pkg"
done

# The work-stealing dispatcher's migration paths (ring growth, cross-worker
# steals) only open up under unbalanced load; run the stealing stress tests
# twice at both GOMAXPROCS extremes so single-threaded interleavings and truly
# parallel ones are both exercised under the race detector. The pool-width
# test guards the slot pool a body parked in Get hands its slot back through
# — one of them stolen — so it runs here too. Chain dispatch marks tasks from
# one goroutine that another completes, and hands them back across the same
# boundary: its tests (fake chain backend, no sockets) ride along, the order
# a chain lost to a gone held argument takes among them. So does
# the barrier's: parents that fire and forget their children, then Barrier,
# round after round under a watchdog (the nested task_storm shape). So does
# the observer's causal-order test, the one that drives every terminal path
# at once on eight workers: success, retry, final error, final panic and the
# dependency cascade, and the StatsObserver's tests: the fold of that stream
# into TaskStats, over real runtimes and over a hand-built stream. So do the
# sync floor's: random programs whose nested bodies submit and Get while the
# main program synchronises, checked against the floor model, and the floor
# deps of a submit recorded in ascending id order.
echo "== go test -race -count=2 -cpu=1,8 -run 'TestStealStress|TestParallelismIsBounded|TestBarrierNestedStress|TestChainMembership|TestChainHandBack|TestChainLostArgument|TestChainHeadFailure|TestChainEventsAndStats|TestObserverCausalOrder|TestStatsRecording|TestObserversViaConfigFeedStats|TestStatsObserverFoldsSyntheticStream|TestFloorMatchesModel|TestRecordedFloorDepsAscend' ./internal/compss/"
go test -race -count=2 -cpu=1,8 -run 'TestStealStress|TestParallelismIsBounded|TestBarrierNestedStress|TestChainMembership|TestChainHandBack|TestChainLostArgument|TestChainHeadFailure|TestChainEventsAndStats|TestObserverCausalOrder|TestStatsRecording|TestObserversViaConfigFeedStats|TestStatsObserverFoldsSyntheticStream|TestFloorMatchesModel|TestRecordedFloorDepsAscend' ./internal/compss/
# The runtime in virtual time: a runtime made inside a testing/synctest
# bubble blocks only on objects it owns, so the bubble's clock moves and a
# makespan reads as the schedule's, exactly — after a runtime used outside
# any bubble, for nested children that share their parent's slot, for a
# nested Barrier storm under its greedy budget, for a carrier's linger exit,
# and for a work signal that lands at the instant a linger expires (the
# runtime must come to rest with no wake token left). The tests build only
# under the experiment (go1.24); tier-1 runs them through the root package's
# TestVirtualSuites, and this line runs them on their own. Like that test, it
# lists only the packages with a test file carrying the build tag: a test
# binary linked for every other package would find nothing to run. A lost
# wake-up there is a deadlock panic with every stack.
virtual=$(grep -rl --include='*_test.go' '^//go:build goexperiment.synctest' internal | xargs -n1 dirname | sort -u | sed 's|^|./|')
if [ -z "$virtual" ]; then
    echo "no package under internal/ has a goexperiment.synctest test file" >&2
    exit 1
fi
echo "== GOEXPERIMENT=synctest go test -count=1 -timeout 120s -run Virtual" $virtual
GOEXPERIMENT=synctest go test -count=1 -timeout 120s -run Virtual $virtual
# Every recorded submit appends to the graph under its one lock, from
# whichever goroutine submits: the chunked store's tests (appends across
# chunk boundaries, a snapshot that must not alias a chunk, eight goroutines
# whose records must each land whole under their own id, occurrence indices
# in id order) run at both GOMAXPROCS extremes too.
echo "== go test -race -count=2 -cpu=1,8 ./internal/graph/"
go test -race -count=2 -cpu=1,8 ./internal/graph/
# Every workflow the figures and Table I run renders to the DOT pinned in
# internal/core/testdata/workflows.golden. Figure 10's fold bodies submit
# concurrently and interleave differently on each run and at each CPU
# count; the DOT's program order must give the same bytes every time.
echo "== go test -count=3 -cpu=1,8 -run '^TestWorkflowsGolden\$' ./internal/core/"
go test -count=3 -cpu=1,8 -run '^TestWorkflowsGolden$' ./internal/core/

# Kernel helpers borrow idle slots from the live runtime or worker (par.Lend)
# and must change no bit: the rotation sweep of EigSym at the pca_eigh size,
# the GEMM and STFT regions, the symmetric Gram kernel against MulAtB, the
# split search's exact pruning (ties against the float reference, and a
# whole CV's trees) and the parallel rank build, each at both GOMAXPROCS
# extremes; the 2 200-node and 60-tree reference tests ran in the -race pass
# above.
# Beside them the bounds: kernels inside W bodies never run more than W
# goroutines, a lone body borrows the idle slots, a one-slot worker's kernels
# stay serial and an in-process member leaves its host's kernels parallel.
# The fleet tests ride along on the exec line: an admission raced against
# dispatch, a dial-in rejoin and the fleet hook's narration, single-threaded
# and truly parallel.
echo "== go test -race -count=2 -cpu=1,8 (kernel bit-identity and borrowing bounds)"
go test -race -count=2 -cpu=1,8 -run 'AcrossLimits|TestMulAtAMatchesMulAtBUpperTriangle' ./internal/mat/ ./internal/sigproc/
# The race detector cannot see inside assembly, so a -race build runs mat's
# Go loops alone. Without -race the same tests, the KNN distance check and
# the allocation check run on the AVX kernels, beside the table and the fuzz
# seeds of the kernels against the Go loops.
echo "== go test -count=2 -cpu=1,8 (AVX kernels, no -race)"
go test -count=2 -cpu=1,8 -run 'TestVectorKernelsMatchGo|FuzzKernelsMatchGo|AcrossLimits|TestMulAtAMatchesMulAtBUpperTriangle|TestDotAxpyAllocFree' ./internal/mat/
go test -count=2 -cpu=1,8 -run 'TestQueryBlockMatchesNaiveScan' ./internal/knn/
# The split search's rank partition against the comparison it stands for,
# at the edges (midpoints that overflow or round up), and its fuzz seeds.
go test -count=2 -cpu=1,8 -run 'TestSplitPartitionMatchesComparison|FuzzBuildTreeMatchesReference' ./internal/forest/
go test -race -count=2 -cpu=1,8 -run 'TestBestSplitNearTieFirstWins|TestTrainSetRanks|TestForestCVMatchesReferenceSplit' ./internal/forest/
go test -race -count=2 -cpu=1,8 ./internal/par/
go test -race -count=2 -cpu=1,8 -run 'TestParallelismIsBounded|TestKernelsBorrowIdleSlots|TestRuntimeLendsWhileCarriersLive' ./internal/compss/
go test -race -count=2 -cpu=1,8 -run 'TestWorkerSlotsBoundKernelHelpers|TestInProcessWorkerLeavesHostKernelsParallel|TestFleet' ./internal/exec/

# internal/core and internal/serve are not in the -count=2 pass above, so
# the tests there that race membership changes, holder kills and concurrent
# stream pushes against real worker processes are pinned by name:
# re-admission, a holder of values other workers consume dying, a chain
# meeting an evicting cache, no cache or a killed worker, and held outputs
# lost with their only holder or to a 1 MB cache (rebuilt from lineage) must
# stay bit-identical, finished runs on a shared fleet must be collected and
# forgotten on every worker, and served alarms must match batch edge.Run
# in-process and across workers, and so must a Windower fed in chunks and
# its labels applied through a Debouncer. Two more fleets of the one data plane ride
# along by variant name: an in-process member that dialed in to the fleet
# listener beside a loopback worker (values cross between them through the
# coordinator) and workers that do not cache (values inline).
# The unit tests of a runtime's claim on a fleet — its pool sized once at New
# (TestCapacityFixedAtNew), its session forgotten once it is unreachable
# (TestReleaseWhenUnreachable, TestForget*, TestReleaseAfterFleetEnds) — run
# in the -count=2 compss and exec pass above.
# TestFoldsOverlap holds each fold's first task open until the next fold's
# has started, so it asserts an order the runtime guarantees, not wall stamps.
# The purity guard rides along: every registered body runs under it, and a
# write to any argument — the one thing that would make sharing a resident
# value with later consumers, retries and pulls unsafe — fails it.
echo "== go test -race -count=2 -run 'TestRemoteKillThenRejoinParity|TestRemoteHolderKillParity|TestRemoteChainParity|TestRemoteLineageParity|TestRemoteFleetForgetsFinishedRuns|TestFoldsOverlap|TestRegisteredBodiesLeaveArgumentsAlone' ./internal/core/"
go test -race -count=2 -run 'TestRemoteKillThenRejoinParity|TestRemoteHolderKillParity|TestRemoteChainParity|TestRemoteLineageParity|TestRemoteFleetForgetsFinishedRuns|TestFoldsOverlap|TestRegisteredBodiesLeaveArgumentsAlone' ./internal/core/
echo "== go test -race -count=2 -run 'TestRemoteParityBitIdentical/^(dial-in-member|no-cache)\$' ./internal/core/"
go test -race -count=2 -run 'TestRemoteParityBitIdentical/^(dial-in-member|no-cache)$' ./internal/core/
echo "== go test -race -count=2 -run 'TestServe|TestPushChunkingInvariance' ./internal/serve/ ./internal/core/ ./internal/edge/"
go test -race -count=2 -run 'TestServe|TestPushChunkingInvariance' ./internal/serve/ ./internal/core/ ./internal/edge/
# What a long-lived runtime keeps, pinned by name: a completed task drops its
# inputs on every terminal path (a task whose output a worker holds keeps its
# arguments for the lineage rerun), a scored window drops its samples, a
# stream's windower holds one window plus one push, and a detached task —
# every batch a server scores — leaves no graph node, no entry in any
# context and nothing on a worker, over 10⁵ single-window batches here. The
# serve, compss, exec, core and edge runs end in leakcheck (their TestMain):
# a scorer loop, a carrier, a worker link reader or a kernel helper that
# outlives the tests fails them with its stack.
echo "== go test -race -count=2 -run 'TestCompletedTask|TestHeldOutputKeepsArgs|TestDetached|TestRecordedSubmitRefusesDetachedFuture|TestServeLetsGo|TestServeSoak|TestWindowerCompactsInPlace' ./internal/compss/ ./internal/serve/ ./internal/edge/"
go test -race -count=2 -run 'TestCompletedTask|TestHeldOutputKeepsArgs|TestDetached|TestRecordedSubmitRefusesDetachedFuture|TestServeLetsGo|TestServeSoak|TestWindowerCompactsInPlace' ./internal/compss/ ./internal/serve/ ./internal/edge/

# The benchmark is a module of its own (bench/go.mod), so ./... above does
# not reach it, and no file under bench/ may change with the code it
# measures: build, vet and test it here, then run its smoke, so a change
# that breaks the frozen benchmark's build fails this gate.
echo "== go vet -C bench ./... && go test -C bench ./..."
go vet -C bench ./...
go test -C bench ./...
echo "== sh bench/run.sh -quick"
sh bench/run.sh -quick

# Submit-path smoke: a quick -benchmem pass over the Submit benchmarks so a
# regression that re-inflates the per-task allocation count is visible in
# every gate run (the numbers land in the log; bench/'s task_storm workload,
# compss.submit_ns_per_task, is the measurement). The bytes a task costs are
# a check, not a log line: TestSubmitBytesPerTask fails past 640 B a
# Submit+Get. The race detector adds allocations of its own, so the -race
# passes above skip it and it runs here without. The -mutexprofile run keeps
# the submit fast path honest: it must stay off contended runtime-global
# locks, and a profile that suddenly grows is the early warning.
echo "== go test -count=2 -cpu=1,8 -run '^TestSubmitBytesPerTask\$' ./internal/compss/"
go test -count=2 -cpu=1,8 -run '^TestSubmitBytesPerTask$' ./internal/compss/
echo "== go test -run=NONE -bench=Submit -benchtime=100x -benchmem ."
go test -run=NONE -bench=Submit -benchtime=100x -benchmem .
# Figure 12's claims are a check, not a log line: one GPU a task beats
# four, and nesting gains more than 2x over the one-GPU baseline (the paper
# measures 2.24x). The replay ranks ready tasks in program order, so the
# nested makespan is one number per program, not per run's thread timing.
echo "== go test -run=NONE -bench='^BenchmarkFigure12CNNVariants\$' -benchtime=1x ."
go test -run=NONE -bench='^BenchmarkFigure12CNNVariants$' -benchtime=1x .
# Wire-path smoke, same idea: one matrix through a connection's encoder and
# decoder must stay at two allocations (the matrix and its data) and at
# memory speed, and the loopback round trip prints next to them — alone, and
# as the eleven-task tree that must ride one frame (frames/op 1; the
# benchmark fails if the tree's requests do not all arrive), with the root
# awaited and with every output held and the root pulled (recvB/op is what
# came home: a few hundred bytes of reports either way, not the values).
echo "== go test -run=NONE -bench='Wire|RemoteRoundtrip|RemoteChainTree|RemoteHeldTree' -benchtime=100x -benchmem ./internal/exec/"
go test -run=NONE -bench='Wire|RemoteRoundtrip|RemoteChainTree|RemoteHeldTree' -benchtime=100x -benchmem ./internal/exec/
# Kernel smoke: the loops a CV pass spends its time in. EigSym allocates its
# buffers once per call (at most 16 allocs/op whatever n: its work buffer and
# rotation list come from mat.Scratch, its rotation sweep is one region),
# BestSplit its scratch once per call (7 allocs/op: five scratch slices and
# the two sides) and BuildTree once per tree (its other allocations are the
# tree's nodes), never per candidate threshold; a count that grows with the input is
# the regression to catch. NewTrainSet, the rank build every fold pays once,
# prints beside them, and so do EigSym280 (the pca_eigh task) and one
# partial_gram block by the general and the symmetric kernel (MulAtB300x256,
# MulAtA300x256: half the multiply-adds). The micro-kernels print their
# /go and /avx ratio: one nn_predict block (MulABt100x119), a Dot at its
# width and one Gram-row Axpy.
echo "== go test -run=NONE -bench='BestSplit|BuildTree|NewTrainSet|EigSym|MulAt.300x256' -benchtime=10x -benchmem ./internal/forest/ ./internal/mat/"
go test -run=NONE -bench='BestSplit|BuildTree|NewTrainSet|EigSym|MulAt.300x256' -benchtime=10x -benchmem ./internal/forest/ ./internal/mat/
echo "== go test -run=NONE -bench='MulABt100x119|Dot119|Axpy256' -benchtime=100ms ./internal/mat/"
go test -run=NONE -bench='MulABt100x119|Dot119|Axpy256' -benchtime=100ms ./internal/mat/
echo "== go test -run=NONE -bench=Submit -benchtime=100x -mutexprofile ."
mutexdir=$(mktemp -d)
go test -run=NONE -bench=Submit -benchtime=100x -mutexprofile "$mutexdir/mutex.prof" -o "$mutexdir/bench.test" .
rm -rf "$mutexdir"

echo "ok"
