#!/usr/bin/env bash
# deadcode.sh — reports every function declared in internal/ that no
# binary reaches, one "file:line pkg.symbol" line each, sorted.
#
# "Reached" is what the Go linker keeps. Every ./cmd/*, every
# ./examples/* and the nsbench module are linked with inlining off (so
# inlined getters still appear) and -dumpdep, for GOARCH=amd64 and
# GOARCH=arm64. A declaration is reported when it is unreached on every
# architecture whose build compiles its file, so the !amd64 stubs count
# as reached through the arm64 links.
#
# This is a report, not a gate: it exits non-zero only when a build
# fails. docs/ARCHITECTURE.md says why each reported function stays.
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

roots=()
for d in cmd/* examples/*; do
    ls "$d"/*.go >/dev/null 2>&1 && roots+=("./$d")
done

# decls lists "file:line symbol" for every func declaration in the Go
# files GOARCH=$1 compiles under internal/. Symbols are spelled as the
# linker spells them: pkg.F, pkg.T.M (value receiver), pkg.(*T).M.
decls() {
    GOARCH=$1 go list -f '{{$d := .Dir}}{{range .GoFiles}}{{$d}}/{{.}}{{"\n"}}{{end}}' ./internal/... |
        sed "s|^$root/||" | xargs grep -n '^func ' | sed -E \
            -e 's|^internal/([a-z0-9_]+)/|\1 &|' \
            -e 's/:func \(([A-Za-z0-9_]+ )?\*([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*/ (*\2).\4/' \
            -e 's/:func \(([A-Za-z0-9_]+ )?([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*/ \2.\4/' \
            -e 's/:func ([A-Za-z0-9_]+).*/ \1/' |
        awk '$3 != "init" { print $2 " " $1 "." $3 }'
}

# reached prints the internal/ symbols the linker keeps for GOARCH=$1,
# generic instantiation brackets stripped, as "pkg.symbol".
reached() {
    local arch=$1
    mkdir -p "$work/bin.$arch"
    if ! { GOARCH=$arch go build -gcflags=all=-l -ldflags=-dumpdep -o "$work/bin.$arch/" "${roots[@]}" &&
        (cd nsbench && GOARCH=$arch go build -gcflags=all=-l -ldflags=-dumpdep -o "$work/bin.$arch/" .); } 2>"$work/dep.$arch"; then
        grep -v -e ' -> ' -e '^# ' "$work/dep.$arch" >&2
        echo "deadcode: GOARCH=$arch build failed" >&2
        return 1
    fi
    sed -n 's/.* -> //p' "$work/dep.$arch" |
        sed -n 's|^netscatter/internal/||p' |
        sed -E 's/\[[^]]*\]//g' | sort -u
}

# Both architectures build at once; wait reports a failed build.
decls amd64 >"$work/decls.amd64" & p1=$!
decls arm64 >"$work/decls.arm64" & p2=$!
reached amd64 >"$work/reached.amd64" & p3=$!
reached arm64 >"$work/reached.arm64" & p4=$!
for p in $p1 $p2 $p3 $p4; do wait "$p"; done

for arch in amd64 arm64; do
    # A value-receiver method also counts as reached through the
    # pointer wrapper the compiler generates for it.
    awk 'NR == FNR { r[$1] = 1; next }
        {
            s = $2; w = s
            if (match(s, /^[a-z0-9_]+\.[A-Za-z0-9_]+\./)) {
                split(s, a, "."); w = a[1] ".(*" a[2] ")." a[3]
            }
            if ((s in r) || (w in r)) print
        }' "$work/reached.$arch" "$work/decls.$arch" >"$work/live.$arch"
done

sort -u "$work/decls.amd64" "$work/decls.arm64" >"$work/all"
sort -u "$work/live.amd64" "$work/live.arm64" >"$work/live"
comm -23 "$work/all" "$work/live"
