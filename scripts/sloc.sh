#!/usr/bin/env bash
# Size of the non-test Rust in this repo, one line of output, counted the
# same way every time so a shrink (or growth) is comparable across PRs:
#
#   * files: tracked *.rs outside benchmark/ and not under a tests/ directory;
#   * lines: each file up to (not including) its first `#[cfg(test)]`;
#   * public items: `pub fn|struct|enum|trait|mod` (incl. `pub const fn`)
#     declarations in those lines.
#
#   scripts/sloc.sh            count the working tree
#   scripts/sloc.sh <commit>   count a commit (e.g. HEAD~1 for parent -> change)
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-}"
if [[ -n "$rev" ]]; then
    list() { git ls-tree -r --name-only "$rev"; }
    show() { git show "$rev:$1"; }
else
    list() { git ls-files; }
    show() { cat "$1"; }
fi

list | grep -E '\.rs$' | grep -Ev '^benchmark/|(^|/)tests/' | while read -r f; do
    [[ -n "$rev" || -f "$f" ]] || continue # deleted but not yet staged
    show "$f" | awk '
        /#\[cfg\(test\)\]/ { past = 1 } # no `exit`: the writer would get SIGPIPE
        past { next }
        { lines++ }
        /^[[:space:]]*pub (const )?(fn|struct|enum|trait|mod)[[:space:]]/ { items++ }
        END { print lines + 0, items + 0 }'
done | awk -v rev="${rev:-worktree}" '
    { files++; lines += $1; items += $2 }
    END { printf "sloc %s: %d non-test Rust lines in %d files, %d public items\n", rev, lines, files, items }'
