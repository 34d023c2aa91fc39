#!/usr/bin/env bash
# Production line count: the lines of every `crates/*/src/**/*.rs` and
# `src/**/*.rs` file outside its `#[cfg(test)]` items, per crate and in
# total. An item runs from its `#[cfg(test)]` line to the line that
# closes its outermost brace, or to its `;` if it has no body, and takes
# the blank lines after it along; braces in string and char literals and
# in `//` comments are not counted. Run from
# anywhere; counts the checkout this script lives in.
#
#   tools/prod_lines.sh        # the worktree
#   tools/prod_lines.sh REV    # the worktree, beside git revision REV
#
# With REV, each file of REV is read with `git show REV:path`; the
# checkout and the index are left alone.
set -euo pipefail
cd "$(dirname "$0")/.."
rev=${1:-}
if [ -n "$rev" ]; then
    git rev-parse --verify --quiet "$rev^{commit}" >/dev/null ||
        { echo "prod_lines.sh: unknown revision '$rev'" >&2; exit 2; }
fi

# Production lines of the file text on stdin.
lines() {
    awk '
    !skip && /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = opened = 0 }
    skip {
        t = $0
        gsub(/"([^"\\]|\\.)*"|\047([^\047\\]|\\.)\047|\/\/.*/, "", t)
        o = gsub(/\{/, "", t)
        depth += o - gsub(/\}/, "", t)
        opened = opened || o
        if (opened ? depth <= 0 : t ~ /;[[:space:]]*$/) skip = 0
        gap = !skip
        next
    }
    gap && /^[[:space:]]*$/ { next }
    { gap = 0; n++ }
    END { print n + 0 }'
}

sum() {
    awk '{ s += $1 } END { print s + 0 }'
}

count_worktree() {
    find "$1" -name '*.rs' -print0 | sort -z |
        while IFS= read -r -d '' f; do lines <"$f"; done | sum
}

count_rev() {
    git ls-tree -r -z --name-only "$rev" -- "$1" |
        while IFS= read -r -d '' f; do
            case $f in *.rs) git show "$rev:$f" | lines ;; esac
        done | sum
}

total=0
rev_total=0
[ -z "$rev" ] || printf '%-20s %9s %9s\n' '' worktree "$rev"
for dir in crates/*/src src; do
    [ -d "$dir" ] || continue
    n=$(count_worktree "$dir")
    total=$((total + n))
    if [ -z "$rev" ]; then
        printf '%-20s %7d\n' "$dir" "$n"
    else
        r=$(count_rev "$dir")
        rev_total=$((rev_total + r))
        printf '%-20s %9d %9d\n' "$dir" "$n" "$r"
    fi
done
if [ -z "$rev" ]; then
    printf '%-20s %7d\n' total "$total"
else
    printf '%-20s %9d %9d\n' total "$total" "$rev_total"
fi
