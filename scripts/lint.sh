#!/usr/bin/env sh
# Invariant lint gate: gofmt over every tracked .go file, go vet, plus the
# repository's own reprolint analyzer suite (determinism, arenapair, ctxloop, noalloc, lockhold, goroleak,
# lockorder, errdisc — see docs/INVARIANTS.md for the catalogue and the
# //repro:allow suppression grammar). Hard-fails on any unsuppressed finding,
# on reason-less or stale suppressions, on a reprolint build failure — a lint
# gate that cannot build must never pass vacuously — and on blowing the
# wall-clock budget.
#
# Usage: scripts/lint.sh [packages...]     (default ./...)
#
# Environment:
#   REPROLINT_JSON=1            one JSON object per finding (machine-readable)
#   REPROLINT_SUMMARIES=path    persistent interprocedural summary store
#                               (default .reprolint-summaries.json; CI caches
#                               it keyed on the tree's export-data hashes)
#   REPROLINT_BUDGET_SECONDS=N  wall-clock budget for the reprolint run
#                               (default 120)
#
# The gofmt check prints its own gate line, {"gate":"gofmt","files":N,
# "pass":...}, naming the unformatted files on stderr; N > 0 fails the gate.
# The reprolint run always ends with a machine-readable gate line matching the
# benchsmoke convention: {"gate":"reprolint","findings":N,"suppressions":M,
# "pass":...}. This script appends a second gate line for the wall-clock
# budget. Under GitHub Actions, findings also print as ::error annotations so
# they render inline on PRs.
set -eu

cd "$(dirname "$0")/.."

pkgs="${*:-./...}"

echo "lint: gofmt"
# Outside a git checkout git ls-files fails, and set -e fails the gate with
# it rather than passing over an empty file list.
gofiles=$(git ls-files '*.go')
# shellcheck disable=SC2086  # gofiles is an intentional word list
unformatted=$(gofmt -l $gofiles)
nfmt=$(printf '%s' "$unformatted" | grep -c . || true)
fmt_pass=true
if [ "$nfmt" -gt 0 ]; then
    fmt_pass=false
    printf '%s\n' "$unformatted" >&2
fi
echo "{\"gate\":\"gofmt\",\"files\":$nfmt,\"pass\":$fmt_pass}"
if [ "$fmt_pass" != "true" ]; then
    echo "lint: FAIL — $nfmt file(s) not gofmt-clean (run gofmt -w)" >&2
    exit 1
fi

echo "lint: go vet $pkgs"
# shellcheck disable=SC2086  # pkgs is an intentional word list
go vet $pkgs

echo "lint: building cmd/reprolint"
go build -o /tmp/reprolint.$$ ./cmd/reprolint
trap 'rm -f /tmp/reprolint.$$' EXIT

flags="-summaries ${REPROLINT_SUMMARIES:-.reprolint-summaries.json}"
if [ "${REPROLINT_JSON:-0}" = "1" ]; then
    flags="$flags -json"
fi
if [ "${GITHUB_ACTIONS:-}" = "true" ]; then
    flags="$flags -gha"
fi

budget="${REPROLINT_BUDGET_SECONDS:-120}"
start=$(date +%s)

echo "lint: reprolint $pkgs"
status=0
# shellcheck disable=SC2086
/tmp/reprolint.$$ $flags $pkgs || status=$?

elapsed=$(( $(date +%s) - start ))
wall_pass=true
if [ "$elapsed" -gt "$budget" ]; then
    wall_pass=false
fi
echo "{\"gate\":\"reprolint\",\"check\":\"wallclock_seconds\",\"value\":$elapsed,\"budget\":$budget,\"pass\":$wall_pass}"

if [ "$status" -ne 0 ]; then
    exit "$status"
fi
if [ "$wall_pass" != "true" ]; then
    echo "lint: FAIL — reprolint took ${elapsed}s, budget ${budget}s" >&2
    exit 1
fi
echo "lint: clean"
