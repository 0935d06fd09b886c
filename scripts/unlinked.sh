#!/usr/bin/env bash
# unlinked.sh — print every function declared in a non-test file of
# internal/ or epcm.go that none of the repository's binaries links, one per
# line as pkg.Recv.Name (pkg.Name for a plain function), sorted.
#
# The binaries are cmd/reproduce, cmd/vmmtrace, every examples/* program and
# bench (its own module, resolving this one through replace). They are built
# with inlining off, so a function that is always inlined still leaves a
# symbol and is not misread as dead. check.sh diffs the output against
# scripts/unlinked.txt. Run from anywhere inside the repo.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
export LC_ALL=C # one sort order for sort, comm and the checked-in list

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT

for dir in cmd/reproduce cmd/vmmtrace examples/*/; do
    dir=${dir%/}
    go build -gcflags=all=-l -o "$bin/$(basename "$dir")" "./$dir"
done
go build -C bench -gcflags=all=-l -o "$bin/bench" .

# Linked: the text symbols of this module, normalised to pkg.Recv.Name.
# A symbol is the whole rest of the line (a generic instantiation holds
# spaces); the balanced [...] of an instantiation, the (* ) around a pointer
# receiver and closure or wrapper suffixes are stripped.
for b in "$bin"/*; do go tool nm "$b"; done | awk '
    $2 != "T" && $2 != "t" { next }
    {
        sym = $0
        sub(/^ *[0-9a-f]* *[Tt] /, "", sym)
        if (sym !~ /^epcm(\.|\/internal\/)/) next
        out = ""; depth = 0
        for (i = 1; i <= length(sym); i++) {
            c = substr(sym, i, 1)
            if (c == "[") depth++
            else if (c == "]") depth--
            else if (depth == 0) out = out c
        }
        sub(/^epcm\/internal\//, "", out)
        gsub(/\(\*|\(|\)/, "", out)
        while (sub(/(\.(func|gowrap|deferwrap)[0-9]+|-range[0-9]+|-fm|\.[0-9]+)$/, "", out)) {}
        print out
    }' | sort -u > "$bin/linked"

# Declared: every func in a non-test file of internal/ and epcm.go.
for f in epcm.go $(find internal -name '*.go' -not -name '*_test.go' | sort); do
    pkg=$(basename "$(dirname "$f")")
    [[ $pkg == . ]] && pkg=epcm
    awk -v pkg="$pkg" '
        /^func / {
            line = $0
            sub(/^func /, "", line)
            recv = ""
            if (line ~ /^\(/) {
                recv = line
                sub(/\).*/, "", recv)
                sub(/^\(/, "", recv)
                n = split(recv, part, " ")
                recv = part[n]
                sub(/^\*/, "", recv)
                sub(/\[.*/, "", recv)
                sub(/^[^)]*\) */, "", line)
                recv = recv "."
            }
            match(line, /^[A-Za-z_][A-Za-z0-9_]*/)
            name = substr(line, RSTART, RLENGTH)
            if (name != "init") print pkg "." recv name
        }' "$f"
done | sort -u > "$bin/declared"

comm -23 "$bin/declared" "$bin/linked"
