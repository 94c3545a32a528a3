#!/bin/sh
# Production lines per directory: for every .rs file under it, the lines
# before the first `#[cfg(test)]` that are neither blank nor a `//` comment
# (doc comments included). With no argument, every crate's `src/`. The
# last line is the total over the directories listed.
#
#   scripts/loc.sh                      # all crates
#   scripts/loc.sh crates/storage/src   # one directory
cd "$(dirname "$0")/.." || exit 1
[ $# -gt 0 ] || set -- crates/*/src
total=0
for dir in "$@"; do
    n=$(find "$dir" -name '*.rs' | sort | xargs awk '
        FNR == 1 { live = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
        live && !/^[[:space:]]*(\/\/|$)/ { n++ }
        END { print n + 0 }')
    printf "%6d  %s\n" "$n" "$dir"
    total=$((total + n))
done
printf "%6d  total\n" "$total"
