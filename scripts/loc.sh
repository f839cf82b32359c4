#!/usr/bin/env bash
# Prints the non-test Rust line count that ROADMAP.md tracks: non-blank,
# non-comment lines of every `.rs` file under `crates/*/src`, leaving out
# the body of each `#[cfg(test)] mod name { ... }` block.
#
# Usage: scripts/loc.sh [repo-root]   (default: the checkout holding this script)
#
# A line counts as a comment when its first non-blank characters are `//`
# (plain, `///` and `//!` alike). Test blocks are skipped by brace depth,
# counted from the `mod` line that follows `#[cfg(test)]`.
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { pending = 0; depth = 0 }
    {
        line = $0
        sub(/^[ \t]+/, "", line)
        if (depth > 0) {
            depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
            next
        }
        if (line ~ /^#\[cfg\(test\)\]/) { pending = 1; next }
        if (pending && line ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ *\{/) {
            pending = 0
            depth = gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
            next
        }
        if (line == "" || line ~ /^\/\//) next
        # A `#[cfg(test)]` on anything but a module block is ordinary code.
        count += 1 + pending
        pending = 0
    }
    END { print count + 0 }
'
