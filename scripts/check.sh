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

echo "== go build ./..."
go build ./...

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
# same tasks. Ten seconds per target on top of the seed corpus the unit run
# above already replayed.
for spec in FuzzDecodeValue:./internal/exec/ FuzzDecodeFrame:./internal/exec/ FuzzReadProvenance:./internal/graph/; do
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
# boundary: its tests (fake chain backend, no sockets) ride along. So does
# the barrier's: parents that fire and forget their children, then Barrier,
# round after round under a watchdog (the nested task_storm shape).
echo "== go test -race -count=2 -cpu=1,8 -run 'TestStealStress|TestParallelismIsBounded|TestBarrierNestedStress|TestChainMembership|TestChainHandBack|TestChainHeadFailure|TestChainEventsAndStats' ./internal/compss/"
go test -race -count=2 -cpu=1,8 -run 'TestStealStress|TestParallelismIsBounded|TestBarrierNestedStress|TestChainMembership|TestChainHandBack|TestChainHeadFailure|TestChainEventsAndStats' ./internal/compss/

# internal/core and internal/serve are not in the -count=2 pass above, so
# the tests there that race membership changes, holder kills and concurrent
# stream pushes against real worker processes are pinned by name:
# re-admission, a holder of values other workers consume dying, a chain
# meeting an evicting cache, no cache or a killed worker, and held outputs
# lost with their only holder or to a 1 MB cache (rebuilt from lineage) must
# stay bit-identical, finished runs on a shared fleet must be collected and
# forgotten on every worker, and served alarms must match batch edge.Run
# in-process and across workers. Two more fleets of the one data plane ride
# along by variant name: an in-process member that dialed in to the fleet
# listener beside a loopback worker (values cross between them through the
# coordinator) and workers that do not cache (values inline).
# The unit tests of a runtime's claim on a fleet — its pool sized once at New
# (TestCapacityFixedAtNew), its session forgotten once it is unreachable
# (TestReleaseWhenUnreachable, TestForget*, TestReleaseAfterFleetEnds) — run
# in the -count=2 compss and exec pass above.
echo "== go test -race -count=2 -run 'TestRemoteKillThenRejoinParity|TestRemoteHolderKillParity|TestRemoteChainParity|TestRemoteLineageParity|TestRemoteFleetForgetsFinishedRuns' ./internal/core/"
go test -race -count=2 -run 'TestRemoteKillThenRejoinParity|TestRemoteHolderKillParity|TestRemoteChainParity|TestRemoteLineageParity|TestRemoteFleetForgetsFinishedRuns' ./internal/core/
echo "== go test -race -count=2 -run 'TestRemoteParityBitIdentical/^(dial-in-member|no-cache)\$' ./internal/core/"
go test -race -count=2 -run 'TestRemoteParityBitIdentical/^(dial-in-member|no-cache)$' ./internal/core/
echo "== go test -race -count=2 -run 'TestServe' ./internal/serve/ ./internal/core/"
go test -race -count=2 -run 'TestServe' ./internal/serve/ ./internal/core/
# What a long-lived runtime keeps, pinned by name: a completed task drops its
# inputs on every terminal path (a task whose output a worker holds keeps its
# arguments for the lineage rerun), a scored window drops its samples, and a
# stream's windower holds one window plus one push.
echo "== go test -race -count=2 -run 'TestCompletedTask|TestHeldOutputKeepsArgs|TestServeLetsGo|TestWindowerCompactsInPlace' ./internal/compss/ ./internal/serve/ ./internal/edge/"
go test -race -count=2 -run 'TestCompletedTask|TestHeldOutputKeepsArgs|TestServeLetsGo|TestWindowerCompactsInPlace' ./internal/compss/ ./internal/serve/ ./internal/edge/

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
# compss.submit_ns_per_task, is the measurement). The -mutexprofile run keeps
# the submit fast path honest: it must stay off contended runtime-global
# locks, and a profile that suddenly grows is the early warning.
echo "== go test -run=NONE -bench=Submit -benchtime=100x -benchmem ."
go test -run=NONE -bench=Submit -benchtime=100x -benchmem .
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
# buffers once per call (7 allocs/op, at most 16 whatever n), BestSplit its
# scratch once per call (6 allocs/op) and BuildTree once per tree, never per
# candidate threshold; a count that grows with the input is the regression to
# catch. NewTrainSet, the rank build every fold pays once, prints beside them.
echo "== go test -run=NONE -bench='BestSplit|BuildTree|NewTrainSet|EigSym' -benchtime=10x -benchmem ./internal/forest/ ./internal/mat/"
go test -run=NONE -bench='BestSplit|BuildTree|NewTrainSet|EigSym' -benchtime=10x -benchmem ./internal/forest/ ./internal/mat/
echo "== go test -run=NONE -bench=Submit -benchtime=100x -mutexprofile ."
mutexdir=$(mktemp -d)
go test -run=NONE -bench=Submit -benchtime=100x -mutexprofile "$mutexdir/mutex.prof" -o "$mutexdir/bench.test" .
rm -rf "$mutexdir"

echo "ok"
