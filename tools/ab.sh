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
#               is better by more than the parent's IQR and by more than
#               the control's |ratio - 1| of the parent median;
#   same        anything else.
#
#   tools/ab.sh PARENT [--pairs N] [--seconds S] [--workload W ...]
#               [--record FILE]
#
# Defaults: 10 pairs, 12 s per run, every workload. Three sides are
# built in throwaway `git clone --shared`s under one directory in $TMPDIR
# (removed on exit; the checkout and its git metadata are left alone):
# `parent` at PARENT, `change` at HEAD with the worktree's diff and
# untracked files applied, and `contrl` at PARENT again. The paths have
# equal length, so the binaries differ only in what the code differs in.
#
# The control runs in every pair: an A/A' column of the same code
# measured in the same run. Its median over the parent's (ctl ratio) and
# the pairs it won show how far the builds and the host alone move a
# row; the summary prints both, and a claim must clear that distance too.
# One process runs at a time. Each pair gets a fresh random seed, used by
# every side, and a random order of the sides, so no build always runs
# right after another's previous workload. Progress and every run's
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
# parent's IQR / median, the control's ratio and pairs won, and the
# verdict. Appending over several changes keeps a trajectory
# of the benchmark.
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
sides="parent change contrl"
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
echo "ab.sh: building perfbench at ${sha:0:12} in $tmp/parent and $tmp/contrl, the worktree in $tmp/change" >&2
for side in $sides; do
    [ "$side" = change ] && continue
    git clone --quiet --shared --no-checkout . "$tmp/$side"
    git -C "$tmp/$side" checkout --quiet --detach "$sha"
done
git clone --quiet --shared --no-checkout . "$tmp/change"
git -C "$tmp/change" checkout --quiet --detach "$head"
# The worktree as a patch on HEAD: tracked edits, then each untracked
# file as a new one (`git diff --no-index` exits 1 when files differ).
{
    git diff --binary HEAD
    git ls-files -z --others --exclude-standard |
        while IFS= read -r -d '' f; do
            git diff --binary --no-index /dev/null "$f" || [ $? -eq 1 ]
        done
} >"$tmp/worktree.patch"
[ ! -s "$tmp/worktree.patch" ] || git -C "$tmp/change" apply "$tmp/worktree.patch"
# What the change side is built from: the diff against the parent, and
# whether the worktree holds anything uncommitted.
diffstat=$(git diff --stat "$sha")
dirt=$(git status --porcelain)
fingerprint() { { git diff "$sha"; git status --porcelain; } | cksum; }
built=$(fingerprint)
declare -A bin
for side in $sides; do
    cargo build --release --offline --quiet --manifest-path "$tmp/$side/benchmark/Cargo.toml"
    bin[$side]=$tmp/$side/benchmark/target/release/perfbench
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
        # A random order of the sides (Fisher-Yates).
        read -ra perm <<<"$sides"
        for ((i = ${#perm[@]} - 1; i > 0; i--)); do
            j=$((RANDOM % (i + 1)))
            t=${perm[i]}
            perm[i]=${perm[j]}
            perm[j]=$t
        done
        order=${perm[*]}
        echo "ab.sh: $w pair $pair seed $seed, $order" >&2
        for side in $order; do run "$w" "$pair" "$side" "$seed"; done
    done
done

echo "parent ${sha:0:12} vs worktree at ${head:0:12}: $pairs pairs, --seconds $seconds; ratio = change / parent"
echo "control: ${sha:0:12} built again in $tmp/contrl; ctl = control / parent, ctl won = pairs it beat the parent"
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
    # The runs of side s on w, met go to b (their count is returned); the
    # pairs it shares with the parent are added to npair, those it beat
    # the parent in to nwon.
    function versus(w, met, s,    p, x, y, n) {
        n = 0
        for (p = 1; p <= pairs[w]; p++) {
            if (!((w, met, s, p) in v)) continue
            b[++n] = y = v[w, met, s, p]
            if (!((w, met, "parent", p) in v)) continue
            x = v[w, met, "parent", p]
            npair++
            if (better[met] == "higher" ? y > x : y < x) nwon++
        }
        return n
    }
    END {
        printf "%-16s %-22s %12s %12s %7s %5s %10s", "workload", "metric", "parent", "change", "ratio", "won", "iqr/med"
        printf " %7s %7s  %s\n", "ctl", "ctl won", "verdict"
        for (i = 1; i <= nw; i++) {
            w = wl[i]
            for (j = 1; j <= nm; j++) {
                met = order[j]; np = 0
                for (p = 1; p <= pairs[w]; p++)
                    if ((w, met, "parent", p) in v) a[++np] = v[w, met, "parent", p]
                npair = nwon = 0; nc = versus(w, met, "change"); won = nwon; both = npair
                if (!np || !nc) continue
                pm = median(a, np); cm = median(b, nc)
                bmin = b[1]; bmax = b[nc]
                # The control median over the parent median.
                npair = nwon = 0; nk = versus(w, met, "contrl"); cwon = nwon; cboth = npair
                cr = nk && pm ? median(b, nk) / pm : 1
                iqr = np > 1 ? cut(a, np, 3) - cut(a, np, 1) : 0
                # Sorted by median(): a[1], bmin are the minima.
                up = better[met] == "higher"
                gain = up ? cm - pm : pm - cm
                apart = up ? bmin > a[np] : bmax < a[1]
                if (-gain > bound[met] * pm) verdict = "worse"
                else if (iqr > bound[met] * pm && !apart) verdict = "unresolved"
                else if (nk && won >= 0.9 * both && gain > iqr && gain > (cr > 1 ? cr - 1 : 1 - cr) * pm) verdict = "claim"
                else verdict = "same"
                printf "%-16s %-22s %12.5g %12.5g %7.3f %2d/%-2d %10.3f", w, met, pm, cm, pm ? cm / pm : 0, won, both, pm ? iqr / pm : 0
                printf " %7.3f %3d/%-3d  %s\n", cr, cwon, cboth, verdict
                if (record == "") continue
                printf "{\"commit\":\"%s\",\"dirty\":%s,\"parent\":\"%s\",\"seconds\":%d,\"pairs\":%d,\"workload\":\"%s\",\"metric\":\"%s\",\"parent_median\":%.6g,\"change_median\":%.6g,\"ratio\":%.4f,\"won\":%d,\"compared\":%d,\"parent_iqr_over_median\":%.4f,", commit, dirty, parent, seconds, npairs, w, met, pm, cm, pm ? cm / pm : 0, won, both, pm ? iqr / pm : 0 >> record
                printf "\"control_ratio\":%.4f,\"control_won\":%d,\"control_compared\":%d,", cr, cwon, cboth >> record
                printf "\"verdict\":\"%s\"}\n", verdict >> record
            }
            if (w in bad) printf "%-16s failed or digest-unstable runs (side@pair):%s\n", w, bad[w]
        }
    }' "$runs"
