#!/usr/bin/env bash
# Size yardstick (ROADMAP "quality of design"): non-test lines and `pub`
# items per crate, each file counted up to its first `#[cfg(test)]`.
# Report-only; CHANGES.md entries copy the TOTAL row before and after.
#
#   scripts/size.sh [repo-root]     (default: the repo this script is in)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

printf '%-12s %8s %6s\n' crate lines pub
for crate in crates/*/; do
    find "$crate" \( -path "${crate}src/*" -o -path "${crate}benches/*" \) -name '*.rs' | sort |
        xargs awk -v crate="$(basename "$crate")" '
            FNR == 1 { in_tests = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
            in_tests { next }
            { lines++ }
            /^[[:space:]]*pub (fn|struct|enum|trait|mod|const|static|type|use|unsafe fn) / { items++ }
            /^[[:space:]]*pub [a-z_0-9]+:/ { items++ }
            END { printf "%-12s %8d %6d\n", crate, lines, items }'
done | awk '{ print; lines += $2; items += $3 }
            END { printf "%-12s %8d %6d\n", "TOTAL", lines, items }'
