# The `#[cfg(test)]` cutter that `tools/prod_lines.sh` and
# `tools/pub_audit.sh` both prepend to their own awk program.
#
# cfg_test() returns 1 for each line of a `#[cfg(test)]` item and 0
# otherwise; call it once per input line, and reset `skip` to 0 at the
# start of each file. An item runs from its `#[cfg(test)]` line to the
# line that closes its outermost brace, or to its `;` if it has no body;
# braces in string and char literals and in `//` comments are not
# counted. `skip` reads 0 again on the item's last line.
function cfg_test(    t, o) {
    if (!skip && $0 ~ /^[[:space:]]*#\[cfg\(test\)\]/) {
        skip = 1
        depth = opened = 0
    }
    if (!skip) return 0
    t = $0
    gsub(/"([^"\\]|\\.)*"|\047([^\047\\]|\\.)\047|\/\/.*/, "", t)
    o = gsub(/\{/, "", t)
    depth += o - gsub(/\}/, "", t)
    opened = opened || o
    if (opened ? depth <= 0 : t ~ /;[[:space:]]*$/) skip = 0
    return 1
}
