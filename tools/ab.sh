#!/usr/bin/env bash
# A/B benchmark of a parent revision against the worktree: builds the
# unmodified `perfbench` of each, runs them in alternating pairs and
# prints, per workload and end-to-end metric (both read from
# BENCHMARK.json), the parent median, the change median, their ratio
# (change / parent), the pairs the change won, the parent's IQR / median
# and a verdict against the metric's `bound`, the first that holds of:
#   worse       the median moved the wrong way by more than the bound;
#   unresolved  the parent's IQR / median exceeds the bound, and not every
#               change run beats every parent run;
#   claim       the change won at least 9/10 of the pairs and its median
#               is better by more than the parent's IQR;
#   same        anything else.
#
#   tools/ab.sh PARENT [--pairs N] [--seconds S] [--workload W ...]
#               [--record FILE]
#
# Defaults: 10 pairs, 12 s per run, every workload. The parent is built
# in a throwaway `git clone --shared` under $TMPDIR (removed on exit; the
# checkout and its git metadata are left alone), the worktree in place.
# One process runs at a time. Each pair gets a fresh random seed, used by
# both sides, and a random first side, so neither build always runs
# right after the other's previous workload. Progress and every run's
# metrics go to stderr, the summary to stdout. A run that reports a
# failed operation or an unstable digest is flagged in the summary.
#
# The summary header names what the change side measured: the worktree's
# HEAD, `git diff --stat PARENT` as it stood when the worktree was built,
# and a warning if the worktree had uncommitted or untracked files then,
# or changed while the runs went on.
#
# --record FILE appends one JSON line per workload and metric to FILE
# (a relative path is taken from the caller's directory):
# commit (the worktree's HEAD), dirty (uncommitted changes at build
# time, or a worktree that changed during the runs), parent, seconds, pairs, both medians, ratio, pairs won, the
# parent's IQR / median and the verdict. Appending over several changes
# keeps a trajectory of the benchmark.
set -euo pipefail
here=$PWD
cd "$(dirname "$0")/.."

usage() {
    echo "usage: tools/ab.sh PARENT [--pairs N] [--seconds S] [--workload W ...] [--record FILE]" >&2
    exit 2
}
[ $# -ge 1 ] || usage
parent=$1
shift
pairs=10
seconds=12
workloads=()
record=
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
        --pairs) pairs=$2 ;;
        --seconds) seconds=$2 ;;
        --workload) workloads+=("$2") ;;
        --record) record=$2 ;;
        *) usage ;;
    esac
    shift 2
done
[[ $pairs =~ ^[1-9][0-9]*$ && $seconds =~ ^[1-9][0-9]*$ ]] || usage
# A relative record path names a file under the caller's directory.
[[ -z $record || $record == /* ]] || record=$here/$record
sha=$(git rev-parse --verify --quiet "$parent^{commit}") ||
    { echo "ab.sh: unknown revision '$parent'" >&2; exit 2; }
head=$(git rev-parse HEAD)
if [ ${#workloads[@]} -eq 0 ]; then
    # `{"name": "W", "why": ...}` lines of BENCHMARK.json.
    mapfile -t workloads < <(awk -F'"' '/"name":/ && /"why":/ { print $4 }' BENCHMARK.json)
fi
# `{"name": "M", "unit": ..., "better": "higher|lower", "bound": B}`:
# the end-to-end metrics, as "M better B M better B ...".
metrics=$(awk -F'"' '/"name":/ && /"bound":/ {
    b = $15; gsub(/[^0-9.]/, "", b); printf "%s %s %s ", $4, $12, b }' BENCHMARK.json)

tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
echo "ab.sh: building perfbench at ${sha:0:12} in $tmp/parent" >&2
git clone --quiet --shared --no-checkout . "$tmp/parent"
git -C "$tmp/parent" checkout --quiet --detach "$sha"
# What the change side is built from: the diff against the parent, and
# whether the worktree holds anything uncommitted.
diffstat=$(git diff --stat "$sha")
dirt=$(git status --porcelain)
fingerprint() { { git diff "$sha"; git status --porcelain; } | cksum; }
built=$(fingerprint)
declare -A bin
for side in parent change; do
    case $side in
        parent) root=$tmp/parent ;;
        change) root=$PWD ;;
    esac
    cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"
    bin[$side]=$root/benchmark/target/release/perfbench
done

# One line per run and metric: "workload pair side metric value", plus a
# "workload pair side ok 0|1" line.
runs=$tmp/runs
: >"$runs"
run() { # workload pair side seed
    local out
    out=$("${bin[$3]}" --workload "$1" --seed "$4" --seconds "$seconds" --trace 0) || true
    awk -v w="$1" -v p="$2" -v s="$3" -v metrics="$metrics" '
        BEGIN { n = split(metrics, m, " "); for (i = 1; i < n; i += 3) want[m[i]] = 1 }
        $1 in want { print w, p, s, $1, $2 }
        $1 == "attempted" { ok = ($4 == 0 && $8 == 1) }
        END { print w, p, s, "ok", ok + 0 }' <<<"$out" | tee -a "$runs" >&2
}
for w in "${workloads[@]}"; do
    for ((pair = 1; pair <= pairs; pair++)); do
        seed=$((RANDOM * 32768 + RANDOM + 1000))
        if ((RANDOM % 2)); then order="parent change"; else order="change parent"; fi
        echo "ab.sh: $w pair $pair seed $seed, $order" >&2
        for side in $order; do run "$w" "$pair" "$side" "$seed"; done
    done
done

echo "parent ${sha:0:12} vs worktree at ${head:0:12}: $pairs pairs, --seconds $seconds; ratio = change / parent"
if [ -n "$diffstat" ]; then
    echo "worktree vs parent at build time (git diff --stat ${sha:0:12}):"
    sed 's/^/  /' <<<"$diffstat"
else
    echo "worktree vs parent at build time: no difference"
fi
if [ -n "$dirt" ]; then
    echo "WARNING: the worktree had uncommitted or untracked files at build time:"
    sed 's/^/  /' <<<"$dirt"
fi
dirty=false
[ -z "$dirt" ] || dirty=true
if [ "$(fingerprint)" != "$built" ]; then
    echo "WARNING: the worktree changed during the runs; the change side is the build-time tree"
    dirty=true
fi
awk -v metrics="$metrics" -v record="$record" -v commit="$head" -v parent="$sha" \
    -v seconds="$seconds" -v npairs="$pairs" -v dirty="$dirty" '
    function sort(a, n,    i, j, x) {
        for (i = 2; i <= n; i++) {
            x = a[i]
            for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
            a[j + 1] = x
        }
    }
    function median(a, n) {
        sort(a, n)
        return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
    }
    # Python statistics.quantiles(n=4), the exclusive method; sorted a.
    function cut(a, n, i,    j, d) {
        j = int(i * (n + 1) / 4)
        if (j < 1) j = 1
        if (j > n - 1) j = n - 1
        d = i * (n + 1) - 4 * j
        return (a[j] * (4 - d) + a[j + 1] * d) / 4
    }
    BEGIN {
        k = split(metrics, m, " ")
        for (i = 1; i < k; i += 3) {
            order[++nm] = m[i]; better[m[i]] = m[i + 1]; bound[m[i]] = m[i + 2]
        }
    }
    $4 == "ok" { if (!$5) bad[$1] = bad[$1] " " $3 "@" $2; next }
    { v[$1, $4, $3, $2] = $5; if (!($1 in seen)) { seen[$1] = 1; wl[++nw] = $1 }
      if ($2 > pairs[$1]) pairs[$1] = $2 }
    END {
        printf "%-16s %-22s %12s %12s %7s %5s %10s  %s\n", "workload", "metric", "parent", "change", "ratio", "won", "iqr/med", "verdict"
        for (i = 1; i <= nw; i++) {
            w = wl[i]
            for (j = 1; j <= nm; j++) {
                met = order[j]; np = nc = won = both = 0
                for (p = 1; p <= pairs[w]; p++) {
                    hp = ((w, met, "parent", p) in v); hc = ((w, met, "change", p) in v)
                    if (hp) a[++np] = v[w, met, "parent", p]
                    if (hc) b[++nc] = v[w, met, "change", p]
                    if (hp && hc) {
                        both++
                        x = v[w, met, "parent", p]; y = v[w, met, "change", p]
                        if (better[met] == "higher" ? y > x : y < x) won++
                    }
                }
                if (!np || !nc) continue
                pm = median(a, np); cm = median(b, nc)
                iqr = np > 1 ? cut(a, np, 3) - cut(a, np, 1) : 0
                # Sorted by median(): a[1], b[1] are the minima.
                up = better[met] == "higher"
                gain = up ? cm - pm : pm - cm
                apart = up ? b[1] > a[np] : b[nc] < a[1]
                if (-gain > bound[met] * pm) verdict = "worse"
                else if (iqr > bound[met] * pm && !apart) verdict = "unresolved"
                else if (won >= 0.9 * both && gain > iqr) verdict = "claim"
                else verdict = "same"
                printf "%-16s %-22s %12.5g %12.5g %7.3f %2d/%-2d %10.3f  %s\n", w, met, pm, cm, pm ? cm / pm : 0, won, both, pm ? iqr / pm : 0, verdict
                if (record != "")
                    printf "{\"commit\":\"%s\",\"dirty\":%s,\"parent\":\"%s\",\"seconds\":%d,\"pairs\":%d,\"workload\":\"%s\",\"metric\":\"%s\",\"parent_median\":%.6g,\"change_median\":%.6g,\"ratio\":%.4f,\"won\":%d,\"compared\":%d,\"parent_iqr_over_median\":%.4f,\"verdict\":\"%s\"}\n", commit, dirty, parent, seconds, npairs, w, met, pm, cm, pm ? cm / pm : 0, won, both, pm ? iqr / pm : 0, verdict >> record
            }
            if (w in bad) printf "%-16s failed or digest-unstable runs (side@pair):%s\n", w, bad[w]
        }
    }' "$runs"
