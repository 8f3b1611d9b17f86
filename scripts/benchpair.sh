#!/usr/bin/env bash
# Usage: scripts/benchpair.sh <rev> <pkg> <bench> <N>
#
# Compares one Go benchmark between the commit <rev> and the checkout's
# working tree. It builds both test binaries of package <pkg> (for example
# ./internal/oned), the base from a `git archive` of <rev> in a temporary
# directory, then runs them alternately N times each (base first in odd
# rounds, the working tree first in even ones, so drift hits both sides)
# and prints, per benchmark, the median and the median absolute deviation
# (MAD) of ns/op, B/op and allocs/op on each side and the change of the
# medians. <bench> is a `go test -bench` pattern. BENCHTIME (default 1s)
# sets -test.benchtime. Example:
#
#   scripts/benchpair.sh HEAD~1 ./internal/oned BenchmarkSolvePlan1D 6
set -euo pipefail

if [ $# -ne 4 ]; then
  echo "usage: $0 <rev> <pkg> <bench> <N>" >&2
  exit 2
fi
rev=$1 pkg=$2 bench=$3 n=$4
case "$n" in
  '' | *[!0-9]* | 0) echo "benchpair: N must be a positive integer, got '$n'" >&2; exit 2 ;;
esac
root=$(cd "$(dirname "$0")/.." && pwd)
sha=$(git -C "$root" rev-parse --verify --quiet "$rev^{commit}") ||
  { echo "benchpair: unknown revision '$rev'" >&2; exit 2; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$sha" | tar -x -C "$tmp/base"

echo "== building $pkg at ${sha:0:12} and in the working tree"
(cd "$tmp/base" && go test -c -o "$tmp/base.test" "$pkg")
(cd "$root" && go test -c -o "$tmp/work.test" "$pkg")

# run <side> appends "<benchmark> <side> <ns/op> <B/op> <allocs/op>" lines.
run() {
  local dir=$root
  [ "$1" = base ] && dir=$tmp/base
  (cd "$dir/$pkg" && "$tmp/$1.test" -test.run '^$' -test.bench "$bench" \
    -test.benchmem -test.benchtime "${BENCHTIME:-1s}" -test.timeout 10m) |
    awk -v side="$1" '$1 ~ /^Benchmark/ {
      ns = b = al = "-"
      for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "B/op") b = $i
        if ($(i+1) == "allocs/op") al = $i
      }
      print $1, side, ns, b, al
    }' >>"$tmp/runs"
}

for i in $(seq 1 "$n"); do
  if [ $((i % 2)) -eq 1 ]; then run base; run work; else run work; run base; fi
done
[ -s "$tmp/runs" ] || { echo "benchpair: no benchmark matched '$bench' in $pkg" >&2; exit 1; }

echo "== $n alternating runs per side; median ± MAD, base ${sha:0:12} -> working tree"
awk '
function median(v, k,   i, j, x, s) {
  for (i = 1; i <= k; i++) s[i] = v[i]
  for (i = 2; i <= k; i++) {
    x = s[i]
    for (j = i - 1; j >= 1 && s[j] > x; j--) s[j+1] = s[j]
    s[j+1] = x
  }
  return k % 2 ? s[(k+1)/2] : (s[k/2] + s[k/2+1]) / 2
}
function num(x) { return x >= 100 ? sprintf("%.0f", x) : sprintf("%.3g", x) }
function stat(key,   k, i, v, d, m) {
  k = cnt[key]
  for (i = 1; i <= k; i++) v[i] = val[key, i]
  m = median(v, k)
  for (i = 1; i <= k; i++) d[i] = v[i] < m ? m - v[i] : v[i] - m
  med[key] = m
  return num(m) " ± " num(median(d, k))
}
{
  if (!($1 in seen)) { seen[$1] = 1; names[++nn] = $1 }
  for (c = 3; c <= 5; c++) {
    if ($c == "-") continue
    key = $1 SUBSEP $2 SUBSEP c
    val[key, ++cnt[key]] = $c + 0
  }
}
END {
  unit[3] = "ns/op"; unit[4] = "B/op"; unit[5] = "allocs/op"
  for (i = 1; i <= nn; i++) {
    print names[i]
    for (c = 3; c <= 5; c++) {
      b = names[i] SUBSEP "base" SUBSEP c
      w = names[i] SUBSEP "work" SUBSEP c
      if (!cnt[b] || !cnt[w]) continue
      sb = stat(b); sw = stat(w)
      delta = med[b] ? sprintf("%+.1f%%", 100 * (med[w] - med[b]) / med[b]) : "n/a"
      printf "  %-10s %24s  -> %24s  %8s\n", unit[c], sb, sw, delta
    }
  }
}' "$tmp/runs"
