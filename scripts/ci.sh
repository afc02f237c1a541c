#!/usr/bin/env bash
# ci.sh — the repository's tier-1 gate: formatting, vet (plus
# staticcheck when available), build, tests (which include the
# golden-vector, zero-allocation, batch-vs-oracle bit-exactness and
# fuzz-seed gates), an explicit fuzz-seed pass, a race-detector pass
# over the concurrent paths, the benchmark-trajectory guard over the
# committed BENCH_<tag>.json reports, and the docs gate (route-coverage
# test, markdown link check, short-mode service soak).
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...
# Explicit assembly-declaration gate: the dsp package's AVX2 kernels
# must keep their Go prototypes, frame sizes and argument offsets in
# sync with the .s bodies (a mismatch is silent corruption, not a build
# error). Plain `go vet` includes asmdecl, but the dedicated pass keeps
# the gate visible and scoped even if the default analyzer set changes.
go vet -asmdecl ./internal/dsp

echo "== staticcheck =="
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "staticcheck not installed; skipping (tier-1 still gates on vet+tests)" >&2
fi

echo "== go build =="
go build ./...

echo "== go test =="
# -count=1 defeats the test cache so every CI run re-executes; -shuffle
# randomizes test order to surface inter-test state leaks.
go test -count=1 -shuffle=on ./...

echo "== go test: several widths =="
# The channel's oracle bit-identity and the zero-allocation gates of
# the synthesis, accumulate, decode, round and tenant-round paths — and
# the pool's own resident-helper gates — must hold at any worker count,
# not only at the host's: rerun those packages at 1, 2 and 4 procs. The
# root package rides along: the public facade steps the same
# pool-parallel round path.
go test -count=1 -cpu 1,2,4 . ./internal/air ./internal/synth ./internal/radio ./internal/core ./internal/sim ./internal/serve ./internal/pool

echo "== cross-build: arm64 =="
# Every AVX2 kernel needs a !amd64 stub; without one, non-amd64 builds
# break while amd64 stays green. Cross-compiling (offline, no cgo)
# catches a missing or mismatched stub.
GOARCH=arm64 go build ./... && GOARCH=arm64 go vet ./internal/dsp

echo "== deadcode (report) =="
# Lists every internal/ function no cmd, example or nsbench binary
# links on amd64 or arm64. A report, not a gate: it fails only when a
# build fails. docs/ARCHITECTURE.md says why each listed function stays.
scripts/deadcode.sh

echo "== fuzz seed corpus =="
# Runs every Fuzz* target over its committed seeds (no exploration):
# synthesizer phase continuity, interleaved-chain stride continuity
# (chain path vs serial recurrence), cyclic-shift identity, decoder
# round-trip, the cross-AP aggregator's never-drop/never-double
# invariants, and the campaign spec decode (no panic, grid bounded by
# campaign.MaxCells).
go test -count=1 -run 'Fuzz' ./internal/synth ./internal/core ./internal/sim ./internal/campaign

echo "== race: concurrent paths =="
# The sim round path (one path, MultiAPNetwork.runRound; the one-AP
# Network included, with networks built concurrently over one shared
# deployment), the batched parallel decoder (including the
# batch-vs-oracle bit-exactness sweep), the one receive engine
# (air.MultiChannel: template fan-out — gain-folded synthesis at one AP,
# shared-template per-AP scaling at k >= 2 — and (AP, tile) workers;
# air.Channel is its one-AP view), with its GOMAXPROCS ∈ {1,2,4} sweeps
# against the serial reference receiver in the air tests, per-AP
# decodes on one sibling decoder family sharing its worker scratch, the
# adversarial trajectory runner (oracle
# bit-identity, churn/dropout recovery accounting, the full-adversity
# GOMAXPROCS sweep), the soft cross-AP combining path (one emit scratch
# filled by pool workers for each AP in turn, folded serially into the
# bin-wise sum, its own GOMAXPROCS sweep), the pool's resident helpers
# under concurrent nested callers, and the stream/noise kernels, all
# under the race detector. The MatchesScalar|ZeroAlloc|SIMDMatches
# names pull in the per-kernel scalar-vs-vector bit-exactness gates
# (axpy/scale, fused noise add, dechirp, window-power scan, planar
# power spectrum, interleaved synthesis chains, ziggurat batch fill) so
# the vector dispatch seams also run raced.
go test -race -count=1 -run 'Concurrent|Parallel|Race|Mixed|Tiled|Stream|MultiAP|MultiChannel|Trajectory|Churn|Dropout|Soft|Emit|Fair|Accumulator|MatchesScalar|ZeroAlloc|SIMDMatches' ./internal/sim ./internal/core ./internal/air ./internal/pool ./internal/dsp ./internal/radio

echo "== campaign: unit + resume + race =="
# The declarative campaign runner: spec expansion, shard-order
# independence (artifacts byte-identical at any worker count), the
# kill/resume gate (truncated checkpoint resumes to a byte-identical
# artifact), and the remote (netscatter-serve) executor equivalence —
# all again under the race detector, which exercises the sharded
# worker pool and the checkpoint journal serialization.
go test -race -count=1 ./internal/campaign

echo "== serve: race + short soak =="
# The multi-tenant service under the race detector (endpoints, stream
# fan-out, fair scheduling), plus the reduced-fleet soak: steady round
# throughput and a flat heap across waves.
go test -race -count=1 -short ./internal/serve

echo "== benchguard: perf trajectory =="
scripts/benchguard.sh

echo "== docs =="
# Route coverage: every registered endpoint documented in docs/API.md
# and vice versa.
go test -count=1 -run 'TestRoutesDocumented' ./internal/serve
# Link check: every relative markdown link in the top-level and docs/
# references must resolve to a real file.
scripts/linkcheck.sh
# Campaign smoke: the worked spec example documented in docs/API.md
# must load and expand, and a short-mode campaign pass (grid run,
# checkpoint resume) must stay green.
go run ./cmd/netscatter-campaign -spec examples/campaign/office.json -expand >/dev/null
go test -count=1 -short -run 'TestShardOrderIndependence|TestResume' ./internal/campaign

echo "ci.sh: all green"
