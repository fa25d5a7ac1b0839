#!/usr/bin/env bash
# Size of the non-test Rust in this repo, two lines of output, counted the
# same way every time so a shrink (or growth) is comparable across PRs:
#
#   * files: tracked *.rs outside benchmark/ and not under a tests/ directory;
#   * lines: each file up to (not including) its first `#[cfg(test)]`;
#   * public items: `pub fn|struct|enum|trait|mod` (incl. `pub const fn`)
#     declarations in those lines;
#   * of those lines, how many call `.unwrap()` / `.expect(`, how many
#     name `Rc<`, `RefCell<`, `Rc::new` or `RefCell::new`, and how many
#     call `.borrow()` / `.borrow_mut()`: what panics on a broken
#     assumption, and how much state is shared and interior-mutable.
#
#   scripts/sloc.sh            count the working tree
#   scripts/sloc.sh <commit>   count a commit (e.g. HEAD~1 for parent -> change)
#
#   scripts/sloc.sh --uncalled [<commit>]
#       the `pub fn` names declared in those counted lines that nothing
#       outside tests calls: the name occurs in no code line of the counted
#       files, of benchmark/src/ (up to its `#[cfg(test)]`) or of examples/,
#       other than as `fn <name>`. Split by whether the rest of the tracked
#       *.rs (test modules, tests/ directories, comment and doc lines) names
#       it: "tests only", or "no reference at all". A grep over names, not a
#       call graph: report-only. A recursive function names itself in its
#       own body, so it counts as its own caller (`Msg::canonicalize`, which
#       only tests call, is missed that way).
#
#   scripts/sloc.sh --crate-local [<commit>]
#       the public items (as counted above) whose name occurs in no code line
#       outside their own crate, listed by crate: candidates for `pub(crate)`.
#       A crate is one library's src/ (its src/main.rs and src/bin/*.rs are
#       crates of their own); a crate's tests/, benches/ and examples/, the
#       root tests/ and examples/, and benchmark/ count as outside. vendor/
#       is left out: its public items mirror an upstream crate's API. Also a
#       grep over names: an item whose name is common (`new`, `len`) never
#       shows. Report-only.
set -euo pipefail
cd "$(dirname "$0")/.."

uncalled=0
crate_local=0
case "${1:-}" in
    --uncalled) uncalled=1 && shift ;;
    --crate-local) crate_local=1 && shift ;;
esac
rev="${1:-}"
if [[ -n "$rev" ]]; then
    list() { git ls-tree -r --name-only "$rev"; }
    show() { git show "$rev:$1"; }
else
    list() { git ls-files; }
    show() { cat "$1"; }
fi

if [[ "$uncalled" == 1 ]]; then
    # One stream, each line tagged: D = counted line (declares and calls),
    # C = other non-test code (calls), T = test, comment or doc line.
    list | grep -E '\.rs$' | while read -r f; do
        [[ -n "$rev" || -f "$f" ]] || continue
        case "$f" in
            benchmark/src/* | examples/*) kind=C ;;
            benchmark/* | tests/* | */tests/*) kind=T ;;
            *) kind=D ;;
        esac
        show "$f" | awk -v kind="$kind" '
            /#\[cfg\(test\)\]/ { kind = "T" }
            /^[[:space:]]*\/\// { print "T", $0; next }
            { print kind, $0 }'
    done | awk -v rev="${rev:-worktree}" '
        {
            tag = $1
            line = substr($0, 3)
            if (tag == "D" && match(line, /^[[:space:]]*pub (const )?fn [A-Za-z0-9_]+/)) {
                name = substr(line, RSTART, RLENGTH)
                sub(/.*fn /, "", name)
                declared[name] = 1
            }
            n = split(line, tok, /[^A-Za-z0-9_]+/)
            for (i = 1; i <= n; i++) {
                if (tok[i] == "") continue
                if (tag == "T") tests[tok[i]]++
                else if (i > 1 && tok[i - 1] == "fn") continue
                else calls[tok[i]]++
            }
        }
        END {
            for (name in declared) {
                if (name in calls) continue
                if (name in tests) { t++; tests_only = tests_only " " name }
                else { z++; none = none " " name }
            }
            printf "uncalled %s: %d pub fn names without a non-test caller: %d no reference at all, %d tests only\n", rev, z + t, z, t
            printf "  no reference at all:%s\n", sorted(none)
            printf "  tests only:%s\n", sorted(tests_only)
        }
        function sorted(list,    a, n, i, j, tmp, out) {
            n = split(list, a, " ")
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { tmp = a[j]; a[j] = a[j - 1]; a[j - 1] = tmp }
            for (i = 1; i <= n; i++) out = out " " a[i]
            return out
        }'
    exit 0
fi

if [[ "$crate_local" == 1 ]]; then
    # One stream, each line "<crate> <D|C> <text>": D = counted line
    # (declares), C = any other code line (names).
    list | grep -E '\.rs$' | while read -r f; do
        [[ -n "$rev" || -f "$f" ]] || continue
        case "$f" in
            benchmark/* | tests/* | */tests/*) crate="$f" kind=C ;;
            examples/* | */examples/* | */benches/* | */src/bin/* | */src/main.rs) crate="${f%.rs}" kind=D ;;
            crates/*) crate="${f#crates/}" && crate="${crate%%/*}" kind=D ;;
            vendor/*) continue ;;
            *) crate=pogo kind=D ;;
        esac
        show "$f" | awk -v crate="$crate" -v kind="$kind" '
            /#\[cfg\(test\)\]/ { kind = "C" }
            /^[[:space:]]*\/\// { next }
            { print crate, kind, $0 }'
    done | awk -v rev="${rev:-worktree}" '
        {
            crate = $1
            line = substr($0, length($1) + 4)
            if ($2 == "D" && match(line, /^[[:space:]]*pub (const )?(fn|struct|enum|trait|mod)[[:space:]]+[A-Za-z0-9_]+/)) {
                name = substr(line, RSTART, RLENGTH)
                sub(/.*[[:space:]]/, "", name)
                decl[crate SUBSEP name] = 1
                items++
            }
            n = split(line, tok, /[^A-Za-z0-9_]+/)
            for (i = 1; i <= n; i++) {
                if (tok[i] == "" || (tok[i], crate) in seen) continue
                seen[tok[i], crate] = 1
                crates_naming[tok[i]]++
            }
        }
        END {
            for (key in decl) {
                split(key, part, SUBSEP)
                if (crates_naming[part[2]] == 1) { local++; print part[1], part[2] | "LC_ALL=C sort" }
            }
            close("LC_ALL=C sort")
            printf "crate-local %s: %d of %d public items never named outside their crate\n", rev, local, items
        }' | awk '
        /^crate-local / { summary = $0; next }
        $1 != crate { if (crate != "") body = body "  " crate ":" names "\n"; crate = $1; names = "" }
        { names = names " " $2 }
        END { if (crate != "") body = body "  " crate ":" names "\n"; printf "%s\n%s", summary, body }'
    exit 0
fi

list | grep -E '\.rs$' | grep -Ev '^benchmark/|(^|/)tests/' | while read -r f; do
    [[ -n "$rev" || -f "$f" ]] || continue # deleted but not yet staged
    show "$f" | awk '
        /#\[cfg\(test\)\]/ { past = 1 } # no `exit`: the writer would get SIGPIPE
        past { next }
        { lines++ }
        /^[[:space:]]*pub (const )?(fn|struct|enum|trait|mod)[[:space:]]/ { items++ }
        /\.unwrap\(\)|\.expect\(/ { unwraps++ }
        /Rc<|RefCell<|Rc::new|RefCell::new/ { shared++ }
        /\.borrow\(\)|\.borrow_mut\(\)/ { borrows++ }
        END { print lines + 0, items + 0, unwraps + 0, shared + 0, borrows + 0 }'
done | awk -v rev="${rev:-worktree}" '
    { files++; lines += $1; items += $2; unwraps += $3; shared += $4; borrows += $5 }
    END {
        printf "sloc %s: %d non-test Rust lines in %d files, %d public items\n", rev, lines, files, items
        printf "sloc %s: %d unwrap()/expect( lines, %d Rc/RefCell lines, %d .borrow()/.borrow_mut() lines\n", rev, unwraps, shared, borrows
    }'
