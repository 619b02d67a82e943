#!/usr/bin/env bash
# Before/after on perfbench, the way EXPERIMENTS.md's method asks for it.
#
#   tools/ab.sh PARENT_REV CHANGE_REV WORKLOAD [PAIRS]
#
# Exports each revision with `git archive` into its own directory with
# its own CARGO_TARGET_DIR (a copy of a checkout drags stale build
# artifacts along; a clean export does not), builds both, then runs
# PAIRS (default 10) interleaved pairs of each tree's own, unmodified
#   benchmark/run.sh --workload W --seed S --seconds 10 --trace 0
# with S = the pair number, alternating which side goes first. Prints
# the steal line of every run, then per metric each side's median and
# quartiles and the pairs the change won.
#
# A revision is any tree-ish; for uncommitted work pass
# "$(git add -A && git write-tree)". Trees and run outputs go under
# $AB_DIR (default ${TMPDIR:-/tmp}/aria-ab), keyed by tree hash, and
# are left there so a traced run can be made from the same build:
#   (cd $AB_DIR/<hash>/src && CARGO_TARGET_DIR=../target \
#        bash benchmark/run.sh --workload W --seed 7 --seconds 10 --trace 1)
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: tools/ab.sh PARENT_REV CHANGE_REV WORKLOAD [PAIRS]" >&2
    exit 2
fi
repo="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
workload="$3"
pairs="${4:-10}"
ab_dir="${AB_DIR:-${TMPDIR:-/tmp}/aria-ab}"
mkdir -p "$ab_dir"
ab_dir="$(cd "$ab_dir" && pwd)"

# export REV -> prints the directory holding src/ and target/
export_tree() {
    local tree dir
    tree="$(git -C "$repo" rev-parse --verify "$1^{tree}")"
    dir="$ab_dir/$tree"
    rm -rf "$dir/src"
    mkdir -p "$dir/src"
    git -C "$repo" archive "$tree" | tar -x -C "$dir/src"
    CARGO_TARGET_DIR="$dir/target" cargo build --release --offline --quiet \
        --manifest-path "$dir/src/benchmark/Cargo.toml" >&2
    echo "$dir"
}

parent="$(export_tree "$1")"
change="$(export_tree "$2")"
if [ "$parent" = "$change" ]; then
    echo "ab.sh: $1 and $2 are the same tree" >&2
    exit 2
fi
runs="$ab_dir/runs-$workload-$$"
mkdir -p "$runs"
echo "# parent $1 -> $parent"
echo "# change $2 -> $change"
echo "# workload $workload, $pairs pairs, outputs in $runs"

run_side() { # side dir pair
    local out="$runs/$1-$3.txt"
    if ! (cd "$2/src" && CARGO_TARGET_DIR="$2/target" bash benchmark/run.sh \
        --workload "$workload" --seed "$3" --seconds 10 --trace 0) >"$out"; then
        echo "ab.sh: $1 run of pair $3 failed, see $out" >&2
        exit 1
    fi
    echo "pair $3 $1: $(grep '^# host steal' "$out" | cut -c3-)"
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run_side parent "$parent" "$pair"
        run_side change "$change" "$pair"
    else
        run_side change "$change" "$pair"
        run_side parent "$parent" "$pair"
    fi
done

# Metric lines are "name value unit"; which way is better comes from
# the change's BENCHMARK.json (its "name"/"better" lines pair up).
awk -v pairs="$pairs" '
function median(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
    return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
}
function quantile(a, n, q,    pos, lo) { # a sorted by median()
    pos = 1 + (n - 1) * q; lo = int(pos)
    return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo+1] - a[lo])
}
FILENAME ~ /BENCHMARK.json$/ {
    if ($1 == "\"name\":") { gsub(/[",]/, "", $2); name = $2 }
    if ($1 == "\"better\":") { gsub(/[",]/, "", $2); better[name] = $2 }
    next
}
/^#/ || /^\{/ || NF != 3 { next }
{
    n = split(FILENAME, parts, "/"); split(parts[n], id, /[-.]/)
    if (!($1 in seen)) { seen[$1] = 1; order[++metrics] = $1; unit[$1] = $3 }
    value[id[1], id[2], $1] = $2
}
function num(x) { return x >= 1000 ? sprintf("%.0f", x) : sprintf("%.4g", x) }
function summary(a, n) { # sorts a
    return num(median(a, n)) " [" num(quantile(a, n, 0.25)) ", " num(quantile(a, n, 0.75)) "]"
}
END {
    printf "\n%-28s %-30s %-30s %8s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "pairs won by change"
    for (m = 1; m <= metrics; m++) {
        name = order[m]; won = 0; tied = 0
        for (p = 1; p <= pairs; p++) {
            a[p] = value["parent", p, name]; b[p] = value["change", p, name]
            if (b[p] == a[p]) tied++
            else if ((better[name] == "higher") == (b[p] > a[p])) won++
        }
        sa = summary(a, pairs); sb = summary(b, pairs)
        ma = median(a, pairs); mb = median(b, pairs)
        printf "%-28s %-30s %-30s %+7.1f%%  %d of %d%s (%s, %s is better)\n", name, sa, sb, 100 * (mb - ma) / ma, won, pairs, tied ? ", " tied " tied" : "", unit[name], better[name] == "higher" ? "higher" : "lower"
    }
}' "$change/src/BENCHMARK.json" "$runs"/parent-*.txt "$runs"/change-*.txt
