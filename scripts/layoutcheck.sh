#!/usr/bin/env bash
# Layout-neutrality check: shows whether the working tree links perfbench to
# the same machine code at the same addresses as a given revision.
#
# perfbench scales every timed span by bursts of a kernel linked into its own
# binary (main.(*speedMeter).burst.func1), so a change that moves that
# function across a 64-byte boundary moves every scaled metric although no op
# got faster or slower. This script exports <rev> with git archive into a
# temp dir, builds perfbench and dpar2d there and in the working tree with
# perfbench/run.sh's build environment, and compares the text symbol tables
# (T/t lines of `go tool nm -size -sort address`: address, size, name; nm
# orders symbols that share an address arbitrarily, so lines are re-sorted).
#
# Usage: scripts/layoutcheck.sh <rev>
#
# Prints one line per binary: the symbol count on each side and either
# "identical" or the first differing line of each side, then the burst
# kernel's address in both perfbench builds. Exits 1 when perfbench's table
# differs (dpar2d's may differ: a change to the serving layer is expected to
# move it), 2 on a usage or build error.
set -euo pipefail

if [[ $# -ne 1 ]]; then
	echo "usage: scripts/layoutcheck.sh <rev>" >&2
	exit 2
fi
rev="$1"
root="$(cd "$(dirname "$0")/.." && pwd)"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/base" "$work/gocache" "$work/gopath" "$work/tmp" "$work/bin"
git -C "$root" archive "$rev" | tar -x -C "$work/base"

# The environment perfbench/run.sh builds with.
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off

build() { # build <tree> <side>
	mkdir -p "$work/bin/$2"
	(cd "$1/perfbench" && go build -o "$work/bin/$2/perfbench" . &&
		go build -o "$work/bin/$2/dpar2d" repro/cmd/dpar2d) >&2
	for b in perfbench dpar2d; do
		go tool nm -size -sort address "$work/bin/$2/$b" |
			awk '$3=="T"||$3=="t"' | LC_ALL=C sort >"$work/bin/$2/$b.text"
	done
}
build "$work/base" base
build "$root" tree

status=0
for b in perfbench dpar2d; do
	old="$work/bin/base/$b.text" new="$work/bin/tree/$b.text"
	counts="$(wc -l <"$old" | tr -d ' ') -> $(wc -l <"$new" | tr -d ' ') text symbols"
	if cmp -s "$old" "$new"; then
		echo "$b: $counts, identical"
		continue
	fi
	[[ $b == perfbench ]] && status=1
	# First line where the two address-sorted tables part; when one table
	# is a prefix of the other, cmp names the last common line instead.
	out="$(cmp "$old" "$new" 2>&1 || true)"
	line="$(echo "$out" | sed -n 's/.* line \([0-9]*\).*/\1/p')"
	[[ $out == *EOF* ]] && line=$((line + 1))
	echo "$b: $counts, first difference at line $line"
	echo "  $rev: $(sed -n "${line}p" "$old")"
	echo "  tree: $(sed -n "${line}p" "$new")"
done
for side in base tree; do
	label="$rev"
	[[ $side == tree ]] && label=tree
	echo "burst.func1 ($label): $(awk '$4 ~ /burst\.func1$/ {print $1, $2}' "$work/bin/$side/perfbench.text")"
done
exit "$status"
