#!/usr/bin/env bash
# Production line count: the lines of every `crates/*/src/**/*.rs` and
# `src/**/*.rs` file before its first `#[cfg(test)]`, per crate and in
# total. Run from anywhere; counts the checkout this script lives in.
#
#   tools/prod_lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print0 | sort -z |
        xargs -0 -r awk '
            FNR == 1 { live = 1 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
            live { n++ }
            END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/*/src src; do
    [ -d "$dir" ] || continue
    n=$(count "$dir")
    printf '%-20s %7d\n' "$dir" "$n"
    total=$((total + n))
done
printf '%-20s %7d\n' total "$total"
