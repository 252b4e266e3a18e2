#!/usr/bin/env bash
# Count non-test Rust lines: every line of a package's `src/` tree
# outside `#[cfg(test)] mod … { … }` blocks (with their `///` docs and
# the blank line after them) and outside files that only a
# `#[cfg(test)] mod name;` declaration pulls in. Other blank lines and
# comments count, and so does a `#[cfg(test)]` item that is not a module
# (an import, a field). Informational, not a gate.
#
# Usage: scripts/loc.sh            # each package, then the total
#        scripts/loc.sh FILE...    # each file, then the total
#
# Relies on rustfmt layout: a test module's closing brace is the first
# line after it that holds only `}` at the module's own indentation.
set -euo pipefail
cd "$(dirname "$0")/.."

# Non-test lines of one file.
count_file() {
    awk '
        skipping {
            if ($0 == indent "}") skipping = 0
            gap = !skipping
            next
        }
        gap {
            gap = 0
            if ($0 == "") next  # the blank line that ends a test module
        }
        pending {
            pending = 0
            if (match($0, /^ *(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{$/)) {
                match($0, /^ */)
                indent = substr($0, 1, RLENGTH)
                skipping = 1
                count -= docs; docs = 0  # its doc comment is test code too
                next
            }
            count++  # the held-back attribute belonged to another item
        }
        /^ *#\[cfg\(test\)\]$/ { pending = 1; next }
        { docs = /^ *\/\/\// ? docs + 1 : 0; count++ }
        END { print count + pending + 0 }
    ' "$1"
}

# Files that only a `#[cfg(test)] mod name;` declaration compiles.
test_only_files() {
    local file dir name
    for file in "$@"; do
        dir=$(dirname "$file")
        grep -A1 -E '^ *#\[cfg\(test\)\]$' "$file" |
            sed -nE 's/^ *(pub(\([a-z]+\))? )?mod ([A-Za-z0-9_]+);$/\3/p' |
            while read -r name; do
                for candidate in "$dir/$name.rs" "$dir/$name/mod.rs"; do
                    [[ -f $candidate ]] && echo "$candidate"
                done
            done
    done
}

# Sum non-test lines over the given files, skipping test-only ones.
count_files() {
    local skip file total=0
    skip=$(test_only_files "$@")
    for file in "$@"; do
        grep -qxF "$file" <<<"$skip" && continue
        total=$((total + $(count_file "$file")))
    done
    echo "$total"
}

total=0
if (($#)); then
    for file in "$@"; do
        lines=$(count_file "$file")
        printf '%7d  %s\n' "$lines" "$file"
        total=$((total + lines))
    done
else
    for src in src crates/*/src perfbench/src; do
        mapfile -t files < <(find "$src" -name '*.rs' | sort)
        lines=$(count_files "${files[@]}")
        printf '%7d  %s\n' "$lines" "${src%/src}"
        total=$((total + lines))
    done
fi
printf '%7d  total\n' "$total"
