#!/bin/sh
# bench_pair.sh compares the simmem micro-benchmarks of a base revision
# with the work tree. It builds the simmem test binary from
# `git archive BASE` and from the work tree, then runs every matching
# benchmark ROUNDS times on each side, one -test.count 1 run at a time,
# alternating the sides (base first in odd rounds, the work tree first
# in even ones), at -test.cpu 1 from each tree's package directory, and
# pinned to one CPU with taskset when it is present.
# Per benchmark it prints each side's median ns/op with its
# interquartile range, the median over rounds of work-tree/base, and in
# how many rounds the work tree was faster. Driven by
# `make bench-pair BASE=<rev>` from the repository root.
#
#   BASE       revision to compare against (required)
#   BENCH      benchmark regexp, as for -test.bench (default: all)
#   ROUNDS     runs per side (default 10)
#   BENCHTIME  -test.benchtime of each run (default 1s)
set -eu

GO=${GO:-go}
BASE=${BASE:?set BASE to the revision to compare against}
BENCH=${BENCH:-.}
ROUNDS=${ROUNDS:-10}
BENCHTIME=${BENCHTIME:-1s}

work=$(mktemp -d -t lmbench-pair.XXXXXX)
trap 'rm -rf "$work"' EXIT INT TERM

mkdir "$work/base"
git archive "$BASE" | tar -x -C "$work/base"
(cd "$work/base" && $GO test -c -o "$work/base.test" ./internal/simmem/)
$GO test -c -o "$work/head.test" ./internal/simmem/
basedir=$work/base/internal/simmem
headdir=$(pwd)/internal/simmem

pin=
if command -v taskset > /dev/null 2>&1; then
    # The first CPU this process may run on.
    cpu=$(taskset -cp $$ | sed 's/.*: *//; s/[-,].*//')
    pin="taskset -c $cpu"
fi

names=$("$work/head.test" -test.list "$BENCH" | grep '^Benchmark' || true)
if [ -z "$names" ]; then
    echo "bench_pair: no benchmark matches $BENCH" >&2
    exit 1
fi

# run SIDE NAME ROUND: one run of one benchmark, recorded as
# "side name round ns/op" lines in $work/results.
run() {
    if [ "$1" = base ]; then dir=$basedir; else dir=$headdir; fi
    (cd "$dir" && $pin "$work/$1.test" -test.run '^$' -test.bench "^$2\$" -test.count 1 \
        -test.benchtime "$BENCHTIME" -test.cpu 1 -test.timeout 10m) |
        awk -v side="$1" -v round="$3" '
            /^Benchmark/ {
                for (i = 3; i <= NF; i++) if ($i == "ns/op") {
                    name = $1; sub(/-[0-9]+$/, "", name)
                    print side, name, round, $(i - 1)
                }
            }' >> "$work/results"
}

: > "$work/results"
r=1
while [ "$r" -le "$ROUNDS" ]; do
    for name in $names; do
        if [ $((r % 2)) -eq 1 ]; then
            run base "$name" "$r"
            run head "$name" "$r"
        else
            run head "$name" "$r"
            run base "$name" "$r"
        fi
    done
    r=$((r + 1))
done

echo "base $BASE vs work tree, $ROUNDS rounds of -test.benchtime $BENCHTIME -test.cpu 1${pin:+, $pin}"
awk '
function sort(a, n,    i, j, t) {
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
}
# q: the p-quantile of the sorted a[1..n], interpolated between ranks.
function q(a, n, p,    h, l) {
    h = 1 + (n - 1) * p; l = int(h)
    return l >= n ? a[n] : a[l] + (h - l) * (a[l + 1] - a[l])
}
function fmt(a, n) {
    if (n == 0) return sprintf("%-34s", "-")
    sort(a, n)
    return sprintf("%-34s", sprintf("%.1f [%.1f, %.1f]", q(a, n, 0.5), q(a, n, 0.25), q(a, n, 0.75)))
}
{
    if (!($2 in seen)) { seen[$2] = 1; order[++names] = $2 }
    ns[$1, $2, $3] = $4; rounds[$3] = 1
}
END {
    printf "%-32s %-34s %-34s %-10s %s\n", "benchmark", "base ns/op [q1, q3]", "head ns/op [q1, q3]", "head/base", "faster"
    for (k = 1; k <= names; k++) {
        b = order[k]; nb = nh = nr = fast = 0
        delete xb; delete xh; delete xr
        for (r in rounds) {
            if (("base", b, r) in ns) xb[++nb] = ns["base", b, r]
            if (("head", b, r) in ns) xh[++nh] = ns["head", b, r]
            if ((("base", b, r) in ns) && (("head", b, r) in ns) && ns["base", b, r] > 0) {
                xr[++nr] = ns["head", b, r] / ns["base", b, r]
                if (ns["head", b, r] < ns["base", b, r]) fast++
            }
        }
        ratio = "-"; won = "-"
        if (nr > 0) { sort(xr, nr); ratio = sprintf("%.3f", q(xr, nr, 0.5)); won = fast "/" nr }
        printf "%-32s %s %s %-10s %s\n", substr(b, 10), fmt(xb, nb), fmt(xh, nh), ratio, won
    }
}' "$work/results"
