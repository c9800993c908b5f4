#!/usr/bin/env sh
# ci.sh — the repository's verification gauntlet:
#   1. hygiene: gofmt -l must be clean, go vet ./... must pass, and
#      internal/graphio must build and vet for a big-endian target (s390x)
#      (named-test gates below go through run_named, which fails when a
#      listed test no longer exists instead of passing on zero matches)
#   2. tier-1: go build ./... && go test ./...
#   3. godoc gate: every internal package must open with a package comment
#   4. race pass over the parallel hot paths and the serving subsystem
#      (core, par, brandes, approx, server, the ws arena, the msbfs kernel),
#      plus an explicit scheduler gate: the dynamic unit scheduler must match
#      serial Brandes at workers 1, 2, 4 and 8 under -race, and a kernel
#      gate: the kernel rule, lanes forced on every unit and the scalar kernel
#      everywhere (budget 0) must bit-match (and one unit list drained by one
#      worker and by eight must flush to the same bits, Compute must return the
#      same bits at workers 1, 2, 4 and 8, and a first Incremental epoch must
#      be Compute's bit for bit) under -race, at 10^5 vertices too, each unit
#      must take the kernel the rule says and no pooled workspace hold more
#      than the lane budget, as must the scalar sweep's three direction modes,
#      whose edge-volume rule may never scan more than pure top-down; then
#      20 s of the Incremental fuzz target (every epoch checked against serial
#      Brandes and held bit for bit to a fresh scalar engine on its edge set,
#      a drawn bit putting the epochs through the lane kernel) and 20 s of the
#      Compute one (drawn bits add weights, a root budget and the estimator
#      at full budget)
#   5. allocation gates: warm pooled sweeps (core, brandes) and the bcd
#      top-K read of an already ranked epoch must be allocation-free, and the
#      workspace pool
#      must survive 8 concurrent checkouts under -race; the pre-sweep layer
#      must stay linear (Decompose's allocations bounded by its outputs, the
#      sub-graph builder and the CSR mirror check equal to their oracles,
#      the α/β composition equal to the per-AP BFS, folded vertices out of
#      every row and edits at them exact, sub-graph equality sensitive to
#      every input of a sweep and an epoch reusing exactly the contributions
#      whose inputs did not change, a relabelled sub-graph the reference build
#      under its Verts map and one without a hub in input order, both written
#      by one swept-CSR writer, and every edge list, weighted or not,
#      canonicalised by one routine);
#      then a -benchmem benchmark smoke compile-and-run
#   6. bcbench smokes on the smallest dataset: -table 2 and a tiny -engine
#      sweep, whose in-run rule-vs-forced-lanes bit cross-check fails the run;
#      then the docs gates: DESIGN.md + EXPERIMENTS.md stay under a line cap,
#      and the count-only tables in EXPERIMENTS.md (Tables 1 and 4, Figures 2
#      and 7) equal a fresh bcbench run byte for byte
#   7. approx smoke: full-budget sampling must bit-match exact BC (the
#      estimator's own K==n self-check on a tiny graph, and the public
#      ApproximateBC against BetweennessCentrality), weighted input or no
#      budget must be an error, a negative top-K must not panic, Async must be
#      the serial successor sweep (bit for bit at one worker, under -race),
#      plus the bcbench error-vs-speedup sweep at tiny scale
#   8. scale smoke: the generators' graphs equal their pinned digests, byte
#      for byte at every worker count, and BuildCSR stays within its memory
#      bound; streamed generation, stream-vs-mmap loads bit-compared
#      (the loader memory bound is TestReadBinaryCSRMemoryBound's, forced
#      lanes vs the rule the -engine smoke's and
#      TestLaneKernelBitMatchesScalarAtScale's)
#   9. the repository benchmark (bench/, the one ruler): the road workload
#      must verify every answer it times, and its -corrupt self-test must
#      fail; no BENCH_*.json artifact may be tracked at the root and neither
#      the BottomUpFrac option nor bcc's BlockEdges may reappear in Go source,
#      nor the per-AP α/β BFS outside test files, nor any piece of the deleted
#      in-place mutation path, nor the sweep-kernel knob (ParseRootEngine,
#      EngineScalar, RunBatch, an Engine field in LoadSpec or approx.Options),
#      the kernel rule's three bounds and the direction-optimizing sweep's two
#      are assigned in test files only, the
#      layout rule's hub bound is a constant no code outside decompose names,
#      neither a second BC sampler (nor approx.EstimateDecomposed) nor the
#      at-scale harness comes back, and
#      neither the copy → rename → strip sub-graph build nor the second
#      edge-list canonicaliser does, nor the surface APGRE did not accelerate
#      (edge BC, Girvan–Newman, harmonic closeness, whole-graph relabels,
#      internal/bfs), nor bcd's metrics relay (hook fields, notify wrappers,
#      Metrics.Hook, Server.Metrics) or the unused topKOf ranker, nor
#      graphio's weighted twin readers/writer or a non-test ReadBinary, nor
#      the estimator's unset options (MaxPivots, DefaultConfidence) or its
#      inverse-normal approximation (zQuantile, probit), nor
#      a command that calls graphio's text parsers instead of graphio.Load,
#      nor a weighted twin of a BC entry point or repro.Timing; nothing ships
#      that nothing runs: no main program under examples/, every Example in
#      the root test files checks its // Output:, and the exports only tests
#      called stay in test files; one table runs the paper's baselines: no
#      non-test code outside internal/brandes calls one by name, and the
#      atomicAddFloat64 wrapper over par.AddFloat64 stays gone; bcd has no
#      sampling mode (no mode=approx, ApproxBC, estimatorFor or FloatGauge in
#      non-test code, no NewEstimator outside internal/approx); bcd is
#      configured by where it runs: server.Config holds DataDir and LoadRoot
#      only, no bcd tuning flag comes back, and no non-test code builds
#      registry bounds other than defaultLimits; bcd ranks an epoch once, in
#      one slot per entry (no per-K top-K cache or ranking scratch pool), and
#      the drain has no small-graph serial cutoff and one non-test caller
#      (sweepGroups: Compute, Incremental and SweepRoots share one split)
#  10. durability smoke: race-built bcd is killed with SIGKILL mid-life and
#      must recover its graph from snapshot+WAL with bit-exact top-K; then a
#      posted path outside -load-root (absolute, or ../) must be a 4xx and a
#      relative one under it must load
#  11. bcd's model test, concurrent phase, under -race (30 s box): readers
#      beside bursting mutators over HTTP answer only 200 (reads) and 200/429
#      (mutations), no reader sees the epoch go down, some ack shares its
#      epoch, and the quiesced and recovered scores equal the model's
set -eu
cd "$(dirname "$0")"

# run_named PATTERN [go test flags...] PACKAGES...: go test -run PATTERN,
# after checking that every |-separated alternative of PATTERN names a test
# `go test -list` finds in PACKAGES (a Test/sub alternative by its top-level
# test, the only level -list sees). `go test -run` exits 0 when nothing
# matches, so without this a renamed or deleted test turns its gate vacuous.
run_named() {
    pattern=$1
    shift
    pkgs=""
    for arg in "$@"; do
        case $arg in
        -*) ;;
        *) pkgs="$pkgs $arg" ;;
        esac
    done
    tops=$(echo "$pattern" | sed 's#/[^|]*##g')
    # shellcheck disable=SC2086
    listed=$(go test -list "$tops" $pkgs)
    for name in $(echo "$tops" | tr '|' ' '); do
        echo "$listed" | grep -qx "$name" || {
            echo "ci.sh: gate names test $name, which is not in$pkgs" >&2
            exit 1
        }
    done
    go test -run "$pattern" "$@"
}

echo "==> hygiene: gofmt -l"
unformatted=$(gofmt -l cmd internal bench ./*.go)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> hygiene: go vet ./..."
go vet ./...
# The binary decoder byte-swaps the adjacency on a big-endian host, a branch
# no little-endian CI host runs: cross-compile and vet it for one.
GOARCH=s390x go build ./internal/graphio
GOARCH=s390x go vet ./internal/graphio

echo "==> tier-1: go build ./... && go test ./..."
go build ./...
go test ./...

echo "==> godoc gate: package comments on every internal package"
undocumented=""
for dir in internal/*/ internal/server/promtext/; do
    pkgfiles=$(ls "$dir"*.go 2>/dev/null | grep -v '_test\.go$' || true)
    [ -n "$pkgfiles" ] || continue
    documented=0
    for f in $pkgfiles; do
        # A package comment is a comment line (or block end) immediately
        # above the package clause.
        if awk 'prev ~ /^(\/\/|.*\*\/)/ && $0 ~ /^package / {found=1} {prev=$0} END {exit !found}' "$f"; then
            documented=1
            break
        fi
    done
    if [ "$documented" -eq 0 ]; then
        undocumented="$undocumented $dir"
    fi
done
if [ -n "$undocumented" ]; then
    echo "godoc gate: packages missing a package comment:$undocumented" >&2
    exit 1
fi

echo "==> race: internal/core internal/par internal/brandes internal/approx internal/server internal/ws internal/msbfs"
go test -race ./internal/core ./internal/par ./internal/brandes ./internal/approx ./internal/server ./internal/ws ./internal/msbfs

echo "==> fuzz: Incremental vs serial Brandes, a fresh Compute and, bit for bit, a fresh scalar engine after every op (20 s)"
# Random small graphs and toggle scripts biased towards degree-1 endpoints —
# the vertices whose arcs are folded out of a sub-graph's rows, so that edits
# keep changing what is folded; one drawn bit lowers the lane kernel's bounds
# and forces it, so that its epochs meet the scalar engine's bit for bit. The
# seed corpus and testdata/fuzz already ran in tier-1.
go test -run '^$' -fuzz FuzzIncrementalMatchesBrandes -fuzztime 20s ./internal/core

echo "==> fuzz: Compute vs serial Brandes, both kernels and the sweep's three direction modes bit-equal (20 s)"
# Random small graphs × directed × threshold × DisableGamma × one or two
# workers × the lane kernel forced (its lower bounds dropped to fuzz size),
# with hybridMinVerts and hybridMinDegree lowered so that graphs this size and
# this sparse take bottom-up and push levels under the rule: pull-only,
# push-everywhere and the rule must agree bit for bit,
# Compute with the scalar kernel at the same worker count bit for bit, and
# with serial Brandes. Two more drawn bits give the graph integer weights
# (held to weighted serial Brandes) and the run a root budget (held to the
# scalar kernel bit for bit, and to the unbudgeted run when it covers every
# root); a third runs approx.Estimate at a full pivot budget, held to the
# scalar kernel bit for bit.
go test -run '^$' -fuzz FuzzComputeMatchesBrandes -fuzztime 20s ./internal/core

echo "==> scheduler gate: BC vs serial Brandes at workers 1,2,4(,8) under -race"
# The worker-sweep test runs the dynamic scheduler at workers 1, 2, 4 and 8
# on all nine graph families and asserts the scores match serial Brandes
# within the suite tolerance; the equivalence and determinism tests pin
# static==dynamic and run-to-run bit stability; the chunking test pins that the
# unit boundaries do not depend on the worker count, and that a split
# sub-graph's units come in an even number, in whole lane words differing by at
# most one.
run_named 'TestSchedulerWorkerSweepMatchesBrandes|TestSchedulerStaticDynamicEquivalent|TestSchedulerDeterministic|TestUnitsSplitEvenly' \
    -race -count=1 ./internal/core

echo "==> msbfs gate: batched engine bit-match, rule / forced lanes / budget 0, under -race"
# The kernel suite pins Brandes equivalence and batch-width bit-invariance;
# the core suite pins the kernel rule == lanes forced on every unit == the
# scalar kernel everywhere (lane budget 0) bit for bit at workers 1,2,4,8
# across all families (directed and disconnected included) and on R-MATs of
# 4,096 and 131,072 vertices, that each unit on either side of the rule's
# three bounds takes the kernel the rule says, that no pooled workspace holds
# more than the lane budget whatever it has swept, that one unit list
# drained by one worker and by eight flushes to the same bits, that Compute's
# scores are the same bits at workers 1, 2, 4 and 8 (weighted, budgeted and
# with lanes forced too), and that a first Incremental epoch is Compute's bit
# for bit. The two direction tests pin the scalar sweep's per-level choices, forward (top-down/bottom-up)
# and backward (pull off the forward pass's tape/push): bit-neutral on
# fixtures big enough to take bottom-up and push levels (directed in-CSR, AP
# roots and γ seeds included), a pull reading its DAG arcs and nothing else,
# and never a larger scan, either way, than pure top-down over whole out-rows;
# and the rule runs at all only on sub-graphs dense enough for it (lattices and
# directed community graphs top-down, R-MATs and dense graphs hybrid). The lane
# kernel keeps one record per (vertex, lane) and sums articulation-point lanes
# apart from the others: lane words that mix both kinds of root match the
# scalar kernel bit for bit, directed and undirected, at one and two workers,
# and a batch that goes inexact — a full word, AP lanes and partial masks
# included — leaves the workspace clean.
run_named 'TestKernelMatchesBrandes|TestKernelBatchWidthBitInvariant|TestKernelDeclinesInexactSigma|TestKernelInexactFullBatchComesBackClean' \
    -race -count=1 ./internal/msbfs
run_named 'TestMSBFSEngineBitMatchesScalar|TestMSBFSEngineDeterministic|TestDrainWorkerCountBitNeutral|TestComputeBitIdenticalAcrossWorkers|TestFirstEpochEqualsCompute|TestHybridSweepBitNeutral|TestDirectionSwitchNeverScansMore|TestHybridGate|TestKernelRuleBoundary|TestLaneMemoryBounded|TestLaneKernelBitMatchesScalarAtScale|TestLaneBatchesMixAPRoots' \
    -race -count=1 ./internal/core
# Both layouts a sub-graph can have go through those gates: the R-MATs' and the
# big community graph's tops are relabelled (hubs first, then breadth-first,
# folded vertices last), the lattices' are in input order, and the two
# fixtures fail if they stop being so. An epoch reuses a relabelled sub-graph's
# contribution like any other, and the census says which layout it is and why.
run_named 'TestEpochReusesUntouchedContributions|TestCensusNamesTheLayout' \
    -race -count=1 ./internal/core
# The layers above core have no kernel to choose and serve either kernel's
# bits: a load spec that still sends "engine" is a 400, a data directory whose
# meta.json still carries one recovers bit-identical to a fresh engine.
run_named 'TestEngineBitMatch|TestEngineExactBudgetBitMatch|TestLoadEngineBitMatchAndEcho|TestMutateEngineBitMatch|TestRecoverIgnoresLegacyEngineField|TestErrorPaths|TestGrowLanes|TestGrowTape' \
    -race -count=1 ./internal/approx ./internal/server ./internal/ws
# A hostile load spec fails alone: an inline n outside [0, 2³¹] is a 400 at
# Load, before any build is queued, a build that panics anyway fails its own
# entry with the panic's text, and the daemon goes on loading and serving. A
# file that does not parse tells the client its line, never its text, and a
# path that names a FIFO is a 400 at once, rooted or not, never a hung open.
run_named 'TestRegistryRejectsHostileInlineN|TestRunBuildRecoversPanic|TestHostileInlineNIs400|TestLoadErrorKeepsFileContentsInTheLog|TestLoadRefusesFIFO' \
    -race -count=1 ./internal/server
# The registry owns one metrics bundle and its code paths increment it: every
# event (overloads, batches, top-K hits and misses, WAL appends, compactions,
# Recover, a queued load canceled by Close) reaches /metrics at its exact
# count. bc serves the exact scores bcd maintains: a query that names mode,
# pivots or eps is a 400 naming that contract, not an option accepted and
# ignored.
run_named 'TestMetricsCountEveryRegistryEvent|TestMetricsEndpoint|TestBCServesExactOnly' \
    -race -count=1 ./internal/server

echo "==> alloc gates: warm sweeps and the top-K hit path allocate zero"
run_named 'TestEngineWarmAllocs|TestSerialSweepWarmAllocs|TestTopKCoalescedHitAllocs|TestPoolRace|TestPoolBytes' \
    -count=1 ./internal/core ./internal/brandes ./internal/server ./internal/ws

echo "==> pre-sweep gates: linear Decompose, builder and mirror check vs their oracles"
# Everything between a graph file and the first sweep is O(n+m) with no
# per-arc temporary: Decompose's allocation count has no term in arcs, the
# sub-graph builder — one swept-CSR writer for both layouts — and the cursor
# mirror check agree with the straightforward formulations kept in their test
# files, and an edge list, shuffled with duplicates and self-loops, comes out
# of the one canonicaliser as the edge set's sorted rows — a weighted one too,
# each arc at the least weight of its parallel copies.
run_named 'TestDecomposeAllocs|TestBuilderMatchesOracle|TestAdjacentBoundaryAPs|TestMirrorCheckMatchesOracle|TestEdgeListsCanonicalize' \
    -count=1 ./internal/decompose ./internal/graph
# The sweep's vertex order: a sub-graph with a hub is the reference build under
# its Verts map whatever order its local ids are in (rows ascending, folded ids
# the tail, LocalID its inverse, two builds equal), the order is the one the
# rule spells, and a sub-graph without a hub keeps the input layout — which the
# writer fills with its folded vertices among the swept ones, so this gate, the
# oracle above and the two below pin the writer on that layout too.
run_named 'TestRelabelIsIsomorphism|TestRelabelOrder|TestNoHubKeepsInputOrder' \
    -count=1 ./internal/decompose
# α/β is a composition along the sub-graph/AP forest: equal to the per-AP BFS
# of the paper's definition on every build.
run_named 'TestComposeMatchesDefinition' -count=1 ./internal/decompose
# What the sweep is handed is the swept graph: γ-folded vertices in no row,
# and an edit at one of them still exact, and the epoch a fresh build's,
# after every op.
run_named 'TestFoldedVerticesLeaveTheRows|TestIncrementalLeafEdits' \
    -count=1 ./internal/decompose ./internal/core
# And its rows are strictly ascending: what makes the backward push add a
# parent's terms in its pull's order.
run_named 'TestOutRowsStayAscending' -count=1 ./internal/decompose
# An epoch reuses a contribution exactly when the sub-graph's inputs are the
# previous epoch's (same slice, by identity), and the equality it goes by
# notices a change to any one of them.
run_named 'TestEpochReusesUntouchedContributions|TestSweepEqual' \
    -count=1 ./internal/core ./internal/decompose

echo "==> bench smoke: go test -bench -benchmem on the arena-backed paths"
go test -run=NONE -bench=. -benchtime=1x -benchmem ./internal/ws ./internal/core

echo "==> bcbench smoke: -table 2 (email-enron, scale 0.05)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/bcbench -table 2 -datasets email-enron -scale 0.05

echo "==> bcbench -engine smoke (email-enron, scale 0.05)"
# The kernel sweep cross-checks lanes forced on every unit against the kernel
# rule bit-for-bit inside the run and exits non-zero on the first differing
# vertex.
go run ./cmd/bcbench -engine -datasets email-enron -scale 0.05

echo "==> docs gates: DESIGN.md + EXPERIMENTS.md line cap, count-only tables current"
# The two documents state the current design; history lives in CHANGES.md and
# git. Raising the cap is an explicit edit, noted in CHANGES.md.
doc_lines=$(cat DESIGN.md EXPERIMENTS.md | wc -l)
if [ "$doc_lines" -gt 1884 ]; then
    echo "ci.sh: DESIGN.md + EXPERIMENTS.md are $doc_lines lines, over the 1884-line cap" >&2
    exit 1
fi
# Tables 1 and 4 and Figures 2 and 7 hold counts only, so EXPERIMENTS.md
# carries them verbatim in a fenced block that opens with the command; each
# must equal a fresh run of that command byte for byte.
go build -o "$tmp/bcbench" ./cmd/bcbench
for args in "-table 1" "-table 4" "-figure 2" "-figure 7"; do
    cmd="\$ go run ./cmd/bcbench $args -scale 1.0"
    want=$(awk -v cmd="$cmd" '$0 == cmd {on = 1; found = 1; next}
        on && /^```/ {exit}
        on {print}
        END {exit !found}' EXPERIMENTS.md) || {
        echo "ci.sh: EXPERIMENTS.md has no block opening with '$cmd'" >&2
        exit 1
    }
    # shellcheck disable=SC2086
    got=$("$tmp/bcbench" $args -scale 1.0)
    if [ "$want" != "$got" ]; then
        printf '%s\n' "$want" >"$tmp/doc_want.txt"
        printf '%s\n' "$got" >"$tmp/doc_got.txt"
        diff -u "$tmp/doc_want.txt" "$tmp/doc_got.txt" >&2 || true
        echo "ci.sh: EXPERIMENTS.md's block for '$cmd' differs from a fresh run" >&2
        exit 1
    fi
done

echo "==> approx smoke: K==n bit-match + tiny error-vs-speedup sweep"
run_named 'TestExactBudgetBitMatch|TestSeededDeterminism' -race ./internal/approx
# internal/approx is the one estimator: the public call is it, exact bit for bit
# at full budget, an error on weighted input or without a budget; TopK and bc
# answer a negative k without a panic.
run_named 'TestApproximateBC|TestApproximateBCFullBudgetIsExact|TestApproximateBCRejects|TestTopK|TestCLIBCNegativeTop' \
    -count=1 .
# Closeness counts hops and has one engine: bc answers a weighted graph with an
# error (exit 1), and -approx or a BC -algo beside -metric closeness with a
# usage error (exit 2), never with scores.
run_named 'TestCLIClosenessRejectsWeighted|TestCLIClosenessRejectsBCFlags|TestClosenessFacade|TestDecomposedRejectsWeighted' \
    -count=1 . ./internal/closeness
# Async runs the serial successor-pull sweep on pooled per-worker scratch: one
# worker is SerialSuccs bit for bit, more stay within tolerance of Serial.
run_named 'TestAsyncMatchesSerialSuccs|TestAsyncRejectsDirected' \
    -race -count=1 ./internal/brandes
# A shortest-path count past float64 is an error, never scores: every
# algorithm of the facade and its incremental and approximate entry points,
# each baseline of brandes' table (which also refuse a weighted graph
# themselves), every core kernel and direction mode, an ApplyBatch that would
# overflow (no epoch published), a bcd load (failed, never served, no read
# answering 500) and a bcd batch that would overflow (truncated back out of the
# WAL, so a crash recovers the graph as it was).
run_named 'TestPathCountOverflowIsAnError' -count=1 .
run_named 'TestBaselinesReportPathCountOverflow|TestBaselinesRejectWeighted' -race -count=1 ./internal/brandes
run_named 'TestPathCountOverflowEveryKernel|TestApplyBatchOverflowPublishesNothing' -count=1 ./internal/core
run_named 'TestOverflowLoadFails|TestRefusedBatchLeavesTheWAL' -race -count=1 ./internal/server
go run ./cmd/bcbench -approx -datasets email-enron -scale 0.05

echo "==> scale smoke: generator digests and memory bound; streamed gen -> stream + mmap loads agree bit-for-bit"
run_named 'TestGeneratorDigests|TestBuildCSRMemoryBound|TestBuildCSRDeterministicAcrossWorkers' \
    -count=1 ./internal/gen
# Capped stand-in for the at-scale pipeline: generate a ~1e5-edge composite
# graph straight to binary, load it through the streaming reader and through
# mmap, and demand bit-identical approximate BC (same seed => same pivots, so
# any divergence is a loader bug, not sampling noise).
go run ./cmd/graphgen -type composite -cores 4 -rmatscale 12 -k 6 \
    -workers 4 -seed 7 -o "$tmp/scale.bin"
go build -o "$tmp/bc" ./cmd/bc
"$tmp/bc" -in "$tmp/scale.bin" -approx -pivots 48 -top 5 |
    sed -n '/top 5 vertices/,$p' >"$tmp/bc_stream.txt"
"$tmp/bc" -in "$tmp/scale.bin" -mmap -approx -pivots 48 -top 5 |
    sed -n '/top 5 vertices/,$p' >"$tmp/bc_mmap.txt"
cmp "$tmp/bc_stream.txt" "$tmp/bc_mmap.txt" || {
    echo "scale smoke: streamed and mmapped loads computed different BC" >&2
    exit 1
}

echo "==> benchmark: go run ./bench -workload road (verified) and its -corrupt self-test"
go run ./bench -workload road -trace 0
if go run ./bench -corrupt -workload road; then
    echo "benchmark: -corrupt passed verification; the checks are vacuous" >&2
    exit 1
fi
# Result artifacts must not re-accrete at the root; results come from bench/.
[ -z "$(git ls-files 'BENCH_*.json')" ]
# Nor may the bottom-up switch parameter the edge-volume rule made meaningless
# (an `if`, because `set -e` ignores the status of a `!` pipeline).
if grep -rn 'BottomUpFrac' --include='*.go' .; then
    echo "ci.sh: BottomUpFrac is back; the sweep's direction rule takes no parameter" >&2
    exit 1
fi
# Nor the per-block edge lists: blocks are vertex sets, an edge's block is
# bcc.Result.EdgeBlock.
if grep -rn 'BlockEdges' --include='*.go' .; then
    echo "ci.sh: BlockEdges is back; bcc keeps blocks as vertex sets only" >&2
    exit 1
fi

# Nor any piece of the in-place mutation path: every batch re-decomposes, and
# core.Incremental keeps no second copy of the graph.
if grep -rnE 'MutateEdge|RefreshRoots|RecomputeAlphaBeta|CloneForMutation|CloneForAlphaBeta|splitSinceRebuild|removeFromEdgeList' --include='*.go' .; then
    echo "ci.sh: a piece of the local/copy-on-write mutation path is back; Incremental has one path" >&2
    exit 1
fi

# Nor the per-AP BFS outside test files: it is the oracle the α/β composition
# is held to, not a path.
if grep -rn 'AlphaBetaBFS\|alphaBetaBFS' --include='*.go' . | grep -v '_test\.go:'; then
    echo "ci.sh: the per-AP BFS is back in non-test code; α/β is composed, the BFS is the test oracle" >&2
    exit 1
fi

# hybridMinVerts and hybridMinDegree are vars only so tests can lower them; no
# other code writes them.
if grep -rnE '(hybridMinVerts|hybridMinDegree)[^=!<>]*(=[^=]|\+\+|--)' --include='*.go' . |
    grep -v '_test\.go:' | grep -vE 'internal/core/state.go:[0-9]+:var (hybridMinVerts = 256|hybridMinDegree = 4)$'; then
    echo "ci.sh: hybridMinVerts or hybridMinDegree is written outside test files; they are constants everywhere but in tests" >&2
    exit 1
fi

# The kernel rule's bounds are vars only so tests can move them; no other code
# assigns them.
if grep -rnE '(laneBudget|msbfsMinVerts|msbfsMinLanes)[^=!<>:]*(=[^=]|\+\+|--)' --include='*.go' . |
    grep -v '_test\.go:' | grep -vE 'internal/core/engine.go:[0-9]+:\s+(laneBudget +|msbfsMinLanes|msbfsMinVerts) = (2 << 20|8|64)$'; then
    echo "ci.sh: laneBudget, msbfsMinVerts or msbfsMinLanes is written outside test files; the kernel rule takes no parameter" >&2
    exit 1
fi

# The layout rule's one bound is a constant of internal/decompose: declared
# once, in non-test code, and named nowhere outside the package — no option,
# flag or test sets it, and nothing else decides by it.
if [ "$(grep -rn 'hubRatio' --include='*.go' . | grep -v '^./internal/decompose/' | wc -l)" -ne 0 ] ||
    [ "$(grep -rnE 'hubRatio[^=!<>:]*(:?=[^=]|\+\+|--)' --include='*.go' . |
        grep -vcE '^./internal/decompose/decompose.go:[0-9]+:const hubRatio = 8$')" -ne 0 ]; then
    echo "ci.sh: hubRatio is named outside internal/decompose or assigned anywhere but its declaration; the layout rule takes no parameter" >&2
    exit 1
fi

# Nor may the sweep kernel become a knob again above core: the parser and the
# scalar constant are gone, a work unit's roots go to runRoots whole, and
# neither a load spec nor the estimator's options carry an engine.
if grep -rnwE 'ParseRootEngine|EngineScalar|RunBatch' --include='*.go' .; then
    echo "ci.sh: ParseRootEngine, EngineScalar or RunBatch is back; core picks the kernel per work unit" >&2
    exit 1
fi
# shellcheck disable=SC2046
if grep -nE '^\s+Engine\s' $(ls internal/server/*.go | grep -v '_test\.go$') internal/approx/approx.go; then
    echo "ci.sh: an Engine field is back in LoadSpec, EntryInfo, graphMeta or approx.Options" >&2
    exit 1
fi

# One sweep driver: drainUnits (internal/core/sched.go) is the only non-test
# code that builds an engine or runs roots through one — Compute's units,
# Incremental's re-sweeps and the sampler's pivot groups (core.SweepRoots) all
# go through it — and the exported per-root sweep beside it stays gone.
if grep -rn 'RootSweep' --include='*.go' . ||
    grep -rnE 'newEngine\(|\.runRoots\(' --include='*.go' . | grep -v '_test\.go:' |
    grep -v '^\./internal/core/sched\.go:' | grep -vE '^\./internal/core/engine\.go:[0-9]+:func newEngine\('; then
    echo "ci.sh: RootSweep is back, or non-test code outside internal/core/sched.go builds an engine or runs roots; drainUnits is the one sweep driver" >&2
    exit 1
fi

# One path from sub-graphs to scores: sweepGroups (internal/core/sched.go) holds
# the only non-test call of drainUnits, so Compute, an Incremental epoch and
# core.SweepRoots cut their roots into the same units and sum them the same way.
drain_calls=$(grep -rn 'drainUnits(' --include='*.go' . | grep -v '_test\.go:' | grep -vc 'func drainUnits(' || true)
if [ "$drain_calls" -gt 1 ]; then
    grep -rn 'drainUnits(' --include='*.go' . | grep -v '_test\.go:' | grep -v 'func drainUnits(' >&2
    echo "ci.sh: non-test code calls drainUnits from $drain_calls places; sweepGroups is the one caller, so every sweep shares one unit split" >&2
    exit 1
fi

# Nor a second BC sampler or entry point beside approx.Estimate, nor the
# at-scale harness beside bench's scale workload.
if grep -rnwE 'SampledWith|PivotStrategy|ApproximateBCWith|ApproximateBCDecomposed|EstimateDecomposed|atScaleExperiment|runLoadProbe' --include='*.go' .; then
    echo "ci.sh: a deleted sampler, approx.EstimateDecomposed or the at-scale harness is back; approximate BC is approx.Estimate, at-scale runs are bench's" >&2
    exit 1
fi

# bcd serves the exact scores it maintains and has no sampling mode: its
# estimator cache, the approx query and the float gauge only that mode used
# stay gone, and the refinable estimator stays internal to internal/approx.
if grep -rnE 'mode=approx|\bApproxBC\b|estimatorFor|FloatGauge|NewEstimator' --include='*.go' . |
    grep -v '_test\.go:' | grep -v '^\./internal/approx/'; then
    echo "ci.sh: bcd's sampling mode (mode=approx, ApproxBC, estimatorFor), FloatGauge or an exported NewEstimator is back; bcd serves exact scores, sampling is bc -approx" >&2
    exit 1
fi

# Nor the second sub-graph build (rows copied under global ids, renamed in
# place, then stripped of the folded vertices) beside the one swept-CSR writer,
# nor a second edge-list canonicaliser beside graph.NewFromCSRUnsorted.
if grep -rnE 'func \(s \*Subgraph\) strip|sortAndDedup' --include='*.go' .; then
    echo "ci.sh: Subgraph.strip or sortAndDedup is back; decompose writes swept rows once, NewFromCSRUnsorted canonicalises every edge list" >&2
    exit 1
fi

# Nor the surface APGRE does not accelerate: edge BC and Girvan–Newman, harmonic
# closeness, whole-graph relabels and the BFS package whose only callers were
# test oracles.
if grep -rnwE 'EdgeBetweenness|EdgeBCParallel|GirvanNewman|DetectCommunities|HarmonicCentrality|RelabelBFS|RelabelByDegree|BFSOrder|DegreeOrder' --include='*.go' . ||
    grep -rnE '"repro/internal/(community|bfs)"' --include='*.go' .; then
    echo "ci.sh: a deleted extension (edge BC, communities, harmonic, whole-graph relabel, internal/bfs) is back" >&2
    exit 1
fi

# Nor the metrics relay: the registry owns one Metrics and increments it where
# events happen, with no hook fields, notify wrappers or second owner, and the
# unused rankers stay gone.
if grep -rnE 'topKOf|notify(LoadDone|Mutate|Count|Overload|Batch|TopK|Durability|Approx)\b|\bon(LoadDone|Mutate|Count|Approx|Overload|Batch|TopK|Durability)\b|func \(m \*Metrics\) Hook|func \(s \*Server\) Metrics' --include='*.go' .; then
    echo "ci.sh: the registry's metrics relay (on* hooks, notify* wrappers, Metrics.Hook, Server.Metrics) or topKOf is back" >&2
    exit 1
fi

# graphio has one reader per format: the weighted twins of the text readers
# and writer stay gone, and the lenient binary reader lives in tests only.
if grep -rnwE 'ReadWeightedEdgeList|ReadDIMACSWeighted|WriteWeightedEdgeList' --include='*.go' . ||
    grep -rn 'func ReadBinary(' --include='*.go' . | grep -v '_test\.go:'; then
    echo "ci.sh: a second graphio reader is back (a weighted twin, or a non-test ReadBinary)" >&2
    exit 1
fi

# The estimator's stopping rule has one confidence level and one batch size:
# the options nothing set, the inverse-normal approximation and the default
# that fed it stay gone.
if grep -rnwE 'zQuantile|probit|MaxPivots|DefaultConfidence' --include='*.go' .; then
    echo "ci.sh: zQuantile, probit, MaxPivots or DefaultConfidence is back; the stopping rule's z is the constant z95" >&2
    exit 1
fi

# graphio.Load is the one place a file's format is chosen: no command calls a
# text parser itself.
if grep -rnE 'graphio\.Read(EdgeList|DIMACS)' --include='*.go' cmd; then
    echo "ci.sh: a command picks a graph format itself; call graphio.Load" >&2
    exit 1
fi

# Weighted is a property of the graph, not of the call: each layer has one BC
# entry point, which follows g.Weighted(), so the weighted twins stay gone —
# and so does repro.Timing, a wrapper around time.Since.
if grep -rnwE 'WeightedBetweennessCentrality|ComputeWeighted|WeightedParallel|WeightedSerial' --include='*.go' . ||
    grep -rnE 'func Timing\(|repro\.Timing\b' --include='*.go' .; then
    echo "ci.sh: a weighted twin of a BC entry point or repro.Timing is back; BetweennessCentrality, core.Compute and brandes.Serial follow g.Weighted()" >&2
    exit 1
fi

# Nothing ships that nothing runs. The README's scenarios are Examples whose
# printed output go test checks, not main programs CI compiles and never runs;
# an Example without an // Output: line is compiled and never run either.
if [ -d examples ] && grep -rlE '^package main' --include='*.go' examples; then
    echo "ci.sh: a main program is back under examples/; write the scenario as an output-checked Example in example_test.go" >&2
    exit 1
fi
unchecked=$(awk '
    FNR == 1 { name = "" }
    /^func Example/ { name = $2; sub(/\(.*/, "", name); name = FILENAME ": " name; out = 0; next }
    name != "" && /^[[:space:]]*\/\/ (Unordered output|Output):/ { out = 1 }
    name != "" && /^}/ { if (!out) print name; name = "" }
' ./*_test.go)
if [ -n "$unchecked" ]; then
    echo "ci.sh: Examples without an // Output: line, which go test compiles and never runs:" >&2
    echo "$unchecked" >&2
    exit 1
fi
# Nor may an export that only tests call come back to non-test code: each
# lives in its package's export_test.go or as a helper in the tests that use it.
if grep -rnwE 'DegreeHistogram' --include='*.go' . ||
    grep -rnE 'func \(s \*Sweep\) (CheckClean|Cap)\(|func \(g \*Graph\) (Transpose|UnitWeights)\(|func \(s \*Subgraph\) (Folded|Weighted|Directed)\(|func SerialSuccs\(|func \(inc \*Incremental\) Decomposition\(|func \(e \*Estimator\) Batches\(|func \(e \*Entry\) BC\(|func \(b \*Bag\[T\]\) Size\(|func \(g \*Gauge\) Add\(' --include='*.go' . |
    grep -v '_test\.go:'; then
    echo "ci.sh: a test-only export (Sweep.CheckClean/Cap, DegreeHistogram, Graph.Transpose/UnitWeights, Subgraph.Folded/Weighted/Directed, SerialSuccs, Incremental.Decomposition, Estimator.Batches, Entry.BC, Bag.Size, Gauge.Add) is back in non-test code" >&2
    exit 1
fi
# The paper's baselines run through one table, brandes.Baselines: no non-test
# code outside internal/brandes calls one by name, and the float-add wrapper the
# baselines once shared is par.AddFloat64 itself.
if grep -rnE 'brandes\.(Preds|Succs|LockSyncFree|Async|Hybrid)\(' --include='*.go' . |
    grep -v '_test\.go:' | grep -v '^\./internal/brandes/' ||
    grep -rn 'atomicAddFloat64' --include='*.go' .; then
    echo "ci.sh: a baseline is called by name outside internal/brandes, or atomicAddFloat64 is back; run baselines through brandes.Baselines" >&2
    exit 1
fi

# bcd is configured by where it runs: server.Config holds DataDir and LoadRoot
# only, the registry's bounds are the constants of defaultLimits (tests lower
# them through newRegistry), and bcd has no tuning flag.
config_fields=$(awk '/^type Config struct \{/ {on = 1; next} on && /^\}/ {exit}
    on && $1 !~ /^\/\// && NF {print $1}' internal/server/registry.go | tr '\n' ' ')
if [ "$config_fields" != "DataDir LoadRoot " ]; then
    echo "ci.sh: server.Config has fields '$config_fields'; it holds DataDir and LoadRoot, the bounds are constants" >&2
    exit 1
fi
if grep -rnE '\bcfg\.(Workers|QueueDepth|DefaultThreshold|SnapshotEvery|MutationQueueDepth|MutationBatch|RetryAfter)\b|Config\{[^}]*\b(Workers|QueueDepth|DefaultThreshold|SnapshotEvery|MutationQueueDepth|MutationBatch|RetryAfter):' --include='*.go' . ||
    grep -nE 'flag\.[A-Za-z]+\("(workers|queue|threshold|snapshot-every|mutation-queue|mutation-batch|retry-after)"' cmd/bcd/main.go ||
    grep -rnE 'limits\{|newRegistry\(|(defaultLimits|\.lim)\.[a-zA-Z]+[^=!<>]*(=[^=]|\+\+|--)' --include='*.go' internal cmd bench ./*.go |
    grep -v '_test\.go:' | grep -vE '^internal/server/registry\.go:[0-9]+:(var defaultLimits = limits\{|func NewRegistry\(cfg Config\) \*Registry \{ return newRegistry\(cfg, defaultLimits\) \}|func newRegistry\(cfg Config, lim limits\) \*Registry \{)$'; then
    echo "ci.sh: a removed server.Config knob or bcd tuning flag is back, or non-test code builds limits other than defaultLimits" >&2
    exit 1
fi

# bcd ranks each epoch once: one ranking slot per entry serves every K, so the
# per-(epoch, K) top-K cache, its singleflight calls and cap, and the pooled
# ranking scratch stay gone. Every unit list drains with the workers asked
# for: no small-graph serial cutoff picks fewer.
if grep -rnwE 'topkCache|topkCall|topkCoalesceCap|rankScratch|topKScratch|dynamicSerialCutoff|drainWorkers' --include='*.go' .; then
    echo "ci.sh: the per-K top-K cache, its scratch pool or the serial cutoff is back; bcd ranks an epoch once (Entry.rank) and the drain uses the workers it is given" >&2
    exit 1
fi

echo "==> durability smoke: SIGKILL bcd, recover, compare top-K bit-exact"
go build -race -o "$tmp/bcd" ./cmd/bcd
bcd_addr=127.0.0.1:8741
bcd_pid=""
trap '[ -n "${bcd_pid:-}" ] && kill "$bcd_pid" 2>/dev/null; rm -rf "$tmp"' EXIT

wait_healthz() {
    i=0
    while ! curl -fsS "http://$bcd_addr/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -lt 100 ] || { echo "bcd never came up" >&2; exit 1; }
        sleep 0.1
    done
}
wait_ready() {
    i=0
    while ! curl -fsS "http://$bcd_addr/v1/graphs/$1" 2>/dev/null | grep -q '"state": "ready"'; do
        i=$((i + 1))
        [ "$i" -lt 300 ] || { echo "graph $1 never became ready" >&2; exit 1; }
        sleep 0.1
    done
}

mkdir "$tmp/graphs"
printf '0 1\n1 2\n2 0\n2 3\n' >"$tmp/graphs/g.txt"
cp "$tmp/graphs/g.txt" "$tmp/outside.txt"
"$tmp/bcd" -addr "$bcd_addr" -quiet -data-dir "$tmp/bcddata" -load-root "$tmp/graphs" >"$tmp/bcd.log" 2>&1 &
bcd_pid=$!
wait_healthz
curl -fsS -X POST "http://$bcd_addr/v1/graphs" -d \
    '{"name":"kill","n":12,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,8],[8,9],[9,10],[10,11],[0,7]]}' \
    >/dev/null
wait_ready kill
curl -fsS -X POST "http://$bcd_addr/v1/graphs/kill/edges?from=1&to=3" >/dev/null
curl -fsS -X POST "http://$bcd_addr/v1/graphs/kill/edges?from=9&to=4" >/dev/null
curl -fsS -X DELETE "http://$bcd_addr/v1/graphs/kill/edges?from=0&to=7" >/dev/null
curl -fsS "http://$bcd_addr/v1/graphs/kill/bc?top=12" >"$tmp/top_before.json"
kill -9 "$bcd_pid"
wait "$bcd_pid" 2>/dev/null || true
"$tmp/bcd" -addr "$bcd_addr" -quiet -data-dir "$tmp/bcddata" -load-root "$tmp/graphs" >"$tmp/bcd2.log" 2>&1 &
bcd_pid=$!
wait_healthz
grep -q 'recovering 1 graph' "$tmp/bcd2.log" || {
    echo "durability smoke: restart did not recover the graph" >&2
    cat "$tmp/bcd2.log" >&2
    exit 1
}
wait_ready kill
curl -fsS "http://$bcd_addr/v1/graphs/kill/bc?top=12" >"$tmp/top_after.json"
cmp "$tmp/top_before.json" "$tmp/top_after.json" || {
    echo "durability smoke: recovered top-K differs from pre-kill top-K" >&2
    exit 1
}
# A path a client posts opens only under -load-root: an absolute path and one
# that climbs out with ../ are refused with a 4xx, a relative one loads.
for path in "$tmp/outside.txt" ../outside.txt g.txt; do
    code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST "http://$bcd_addr/v1/graphs" \
        -d "{\"name\":\"file\",\"path\":\"$path\"}")
    case $path:$code in
    g.txt:202 | [!g]*:4[0-9][0-9]) ;;
    *)
        echo "durability smoke: POST path $path answered $code (want 4xx outside -load-root, 202 under it)" >&2
        exit 1
        ;;
    esac
done
wait_ready file
kill "$bcd_pid"
wait "$bcd_pid" 2>/dev/null || true
bcd_pid=""

echo "==> bcd model test: readers beside bursting mutators over HTTP, under -race"
# The phase that replaced the bcdload smoke: every read 200, every mutation
# 200 or 429, no reader sees the epoch go down, some ack shares its epoch, and
# the quiesced scores — recovered ones too — equal serial Brandes on the acked
# edge set at 1e-9 and a fresh NewIncremental bit for bit.
run_named 'TestRegistryMatchesModel/concurrent' -race -count=1 -timeout=30s ./internal/server

echo "ci.sh: all checks passed"
