#!/usr/bin/env bash
# Production `pub fn`s that no production code calls. Each
# `crates/*/src`, `src` and `benchmark/src` file is read without its
# `#[cfg(test)]` items (cut by brace depth, as `tools/prod_lines.sh` cuts
# them); comment lines and `use` / `pub use` declarations are dropped. A `pub fn` whose name occurs
# in the rest only on its own definition lines is flagged, one line each:
# the name, where it is defined, and its allowlist reason or `NOT
# ALLOWLISTED`. Run from anywhere; reads the checkout this script lives
# in.
#
#   tools/pub_audit.sh
#
# Exits 1 if a flagged name is not in the allowlist below, or if an
# allowlist entry no longer names a flagged function (so the list cannot
# rot); 0 otherwise.
set -euo pipefail
cd "$(dirname "$0")/.."

# One line each: the name, then who reads it in place of a production
# caller.
allow='
channel_dependency_graph DESIGN inventory row 9, examples/static_vs_dynamic.rs, ROADMAP item 14 (static agreement)
has_cycle                DESIGN inventory row 9, examples/static_vs_dynamic.rs, ROADMAP item 14 (static agreement)
subgraph                 examples/static_vs_dynamic.rs (Duato escape layer), DESIGN inventory row 9
run_reference            the dense-stepper oracle ROADMAP item 17 decides on
run_reference_with       the dense-stepper oracle ROADMAP item 17 decides on (torture harness)
serve_local              README "Fault injection & supervision": the in-process embedding example
wait_dirty_len           ROADMAP item 15 telemetry (detector events pending per epoch)
'

mapfile -d '' files < <(find crates/*/src src benchmark/src -name '*.rs' -print0 | sort -z)
awk -v allow="$allow" '
    FNR == 1 { skip = inuse = 0 }
    !skip && /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = opened = 0 }
    skip {
        t = $0
        gsub(/"([^"\\]|\\.)*"|\047([^\047\\]|\\.)\047|\/\/.*/, "", t)
        o = gsub(/\{/, "", t)
        depth += o - gsub(/\}/, "", t)
        opened = opened || o
        if (opened ? depth <= 0 : t ~ /;[[:space:]]*$/) skip = 0
        next
    }
    /^[[:space:]]*\/\// { next }
    # A `use` declaration, possibly over several lines, names no caller.
    inuse || /^[[:space:]]*(pub(\([a-z:]+\))?[[:space:]]+)?use[[:space:]]/ {
        inuse = ($0 !~ /;/)
        next
    }
    {
        line = $0
        if (match(line, /(^|[^a-zA-Z0-9_(])pub[[:space:]]+((const|unsafe|async)[[:space:]]+)*fn[[:space:]]+[a-zA-Z_][a-zA-Z0-9_]*/)) {
            name = substr(line, RSTART, RLENGTH)
            sub(/.*fn[[:space:]]+/, "", name)
            defs[name]++
            where[name] = where[name] " " FILENAME ":" FNR
        }
        gsub(/[^a-zA-Z0-9_]+/, " ", line)
        n = split(line, tok, " ")
        for (i = 1; i <= n; i++) seen[tok[i]]++
    }
    END {
        split(allow, rows, "\n")
        for (r in rows) if (split(rows[r], f, " ")) {
            reason = rows[r]
            sub(/^[^ ]+ +/, "", reason)
            allowed[f[1]] = reason
        }
        bad = 0
        for (name in defs) {
            if (seen[name] > defs[name]) continue
            flagged[name] = 1
            if (!(name in allowed)) bad = 1
            mark = (name in allowed) ? allowed[name] : "NOT ALLOWLISTED"
            printf "%-25s %-38s %s\n", name, substr(where[name], 2), mark | "sort"
        }
        close("sort")
        for (name in allowed) if (!(name in flagged)) {
            printf "pub_audit.sh: allowlist entry %s names no flagged function\n", name
            bad = 1
        }
        exit bad
    }' "${files[@]}"
