#!/usr/bin/env bash
# Prints the non-test line count of every crate under crates/, and the
# total. A file's non-test lines are its lines before the first line that
# starts with `#[cfg(test)]` (the whole file when there is none), summed
# over `crates/<crate>/src/**/*.rs`. Pass `--files` to also print each
# file's count. Run from anywhere in the repo.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
shopt -s globstar nullglob

per_file=0
if [ "${1:-}" = "--files" ]; then
    per_file=1
fi

total=0
for crate in crates/*/; do
    crate_total=0
    for file in "$crate"src/**/*.rs; do
        lines=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        crate_total=$((crate_total + lines))
        if [ "$per_file" = 1 ]; then
            printf '%8d  %s\n' "$lines" "$file"
        fi
    done
    printf '%8d  %s\n' "$crate_total" "${crate%/}"
    total=$((total + crate_total))
done
printf '%8d  total\n' "$total"
