#!/usr/bin/env bash
# Before/after on perfbench, the way EXPERIMENTS.md's method asks for it.
#
#   tools/ab.sh [--traced] PARENT_REV CHANGE_REV WORKLOAD[,WORKLOAD...] [PAIRS]
#
# Exports each revision with `git archive` into its own directory with
# its own CARGO_TARGET_DIR (a copy of a checkout drags stale build
# artifacts along; a clean export does not), builds both, then runs
# PAIRS (default 10) interleaved pairs of each tree's own, unmodified
#   benchmark/run.sh --workload W --seed S --seconds 10 --trace 0
# with S = the pair number, alternating which side goes first. With
# several workloads, pair S runs every workload before pair S+1 starts,
# so host noise lands on all of them alike. Prints the steal line of
# every run, then per workload and metric each side's median and
# quartiles, the pairs the change won and, for the end-to-end metrics,
# a verdict against the metric's bound in the change's BENCHMARK.json:
# REGRESSION when the change's median is worse by more than the bound,
# GAIN>bound when it is better by more than the bound.
#
# --traced adds one `--trace 1` run per side and workload after the
# pairs. A traced run asserts its workload's claims and exits non-zero
# when one fails; ab.sh then prints the failure and exits 1 after the
# summary, so a failed claim is never mistaken for a result.
#
# A revision is any tree-ish; for uncommitted work pass
# "$(git add -A && git write-tree)". Trees and run outputs go under
# $AB_DIR (default ${TMPDIR:-/tmp}/aria-ab), keyed by tree hash, and
# are left there so further runs can be made from the same build:
#   (cd $AB_DIR/<hash>/src && CARGO_TARGET_DIR=../target \
#        bash benchmark/run.sh --workload W --seed 7 --seconds 10 --trace 1)
set -euo pipefail

usage() {
    echo "usage: tools/ab.sh [--traced] PARENT_REV CHANGE_REV WORKLOAD[,WORKLOAD...] [PAIRS]" >&2
    exit 2
}
traced=0
if [ "${1:-}" = "--traced" ]; then
    traced=1
    shift
fi
if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    usage
fi
repo="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
IFS=, read -r -a workloads <<<"$3"
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
runs="$ab_dir/runs-$$"
for w in "${workloads[@]}"; do
    mkdir -p "$runs/$w"
done
echo "# parent $1 -> $parent"
echo "# change $2 -> $change"
echo "# workloads ${workloads[*]}, $pairs pairs, outputs in $runs"

perfbench() { # dir workload seed trace
    (cd "$1/src" && CARGO_TARGET_DIR="$1/target" bash benchmark/run.sh \
        --workload "$2" --seed "$3" --seconds 10 --trace "$4")
}

run_side() { # side dir workload pair
    local out="$runs/$3/$1-$4.txt"
    if ! perfbench "$2" "$3" "$4" 0 >"$out"; then
        echo "ab.sh: $1 run of $3 pair $4 failed, see $out" >&2
        exit 1
    fi
    echo "pair $4 $3 $1: $(grep '^# host steal' "$out" | cut -c3-)"
}

for pair in $(seq 1 "$pairs"); do
    for w in "${workloads[@]}"; do
        if [ $((pair % 2)) -eq 1 ]; then
            run_side parent "$parent" "$w" "$pair"
            run_side change "$change" "$w" "$pair"
        else
            run_side change "$change" "$w" "$pair"
            run_side parent "$parent" "$w" "$pair"
        fi
    done
done

failed=0
if [ "$traced" -eq 1 ]; then
    for w in "${workloads[@]}"; do
        for side in parent change; do
            dir="$parent"
            [ "$side" = change ] && dir="$change"
            out="$runs/$w/traced-$side.txt"
            if perfbench "$dir" "$w" 7 1 >"$out" 2>&1; then
                echo "traced $w $side: ok, $out"
            else
                failed=1
                echo "TRACED RUN FAILED: $w $side (exit $?), see $out" >&2
                grep -E 'FAILED|claim|error' "$out" | tail -n 5 >&2 || true
            fi
        done
    done
fi

# Metric lines are "name value unit"; which way is better and the bound
# come from the change's BENCHMARK.json (its "name"/"better"/"bound"
# lines follow each other).
summarize() { # workload
    awk -v pairs="$pairs" -v workload="$1" '
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
    if ($1 == "\"bound\":") { gsub(/[",]/, "", $2); bound[name] = $2 + 0 }
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
function verdict(name, delta,    worse) {
    if (!(name in bound)) return ""
    worse = better[name] == "higher" ? -delta : delta
    if (worse > bound[name]) return "  REGRESSION"
    if (-worse > bound[name]) return "  GAIN>bound"
    return "  within bound"
}
END {
    printf "\n== %s\n%-28s %-30s %-30s %8s  %s\n", workload, "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "pairs won by change"
    for (m = 1; m <= metrics; m++) {
        name = order[m]; won = 0; tied = 0
        for (p = 1; p <= pairs; p++) {
            a[p] = value["parent", p, name]; b[p] = value["change", p, name]
            if (b[p] == a[p]) tied++
            else if ((better[name] == "higher") == (b[p] > a[p])) won++
        }
        sa = summary(a, pairs); sb = summary(b, pairs)
        ma = median(a, pairs); mb = median(b, pairs)
        delta = ma == 0 ? 0 : (mb - ma) / ma
        printf "%-28s %-30s %-30s %+7.1f%%  %d of %d%s (%s, %s is better)%s\n", name, sa, sb, 100 * delta, won, pairs, tied ? ", " tied " tied" : "", unit[name], better[name] == "higher" ? "higher" : "lower", verdict(name, delta)
    }
}' "$change/src/BENCHMARK.json" "$runs/$1"/parent-*.txt "$runs/$1"/change-*.txt
}

for w in "${workloads[@]}"; do
    summarize "$w"
done
if [ "$failed" -ne 0 ]; then
    echo "ab.sh: a traced run failed its workload claims (see above)" >&2
    exit 1
fi
