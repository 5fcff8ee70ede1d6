#!/usr/bin/env bash
# Size yardstick (ROADMAP "quality of design"): non-test lines, `pub`
# items and `opts` per crate, each file counted up to its first
# `#[cfg(test)]`. `opts` is the number of `pub` fields in the
# configuration structs named below — each an independently settable
# value. Report-only; CHANGES.md entries copy the TOTAL row before and
# after.
#
#   scripts/size.sh [repo-root]     (default: the repo this script is in)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

configs='Options|StoreConfig|VlogParams|ServeConfig|ReplicaConfig|ShardConfig|ChaosConfig|ScrubConfig|GcConfig'

printf '%-12s %8s %6s %5s\n' crate lines pub opts
for crate in crates/*/; do
    find "$crate" \( -path "${crate}src/*" -o -path "${crate}benches/*" \) -name '*.rs' | sort |
        xargs awk -v crate="$(basename "$crate")" -v configs="^pub struct ($configs) " '
            FNR == 1 { in_tests = 0; in_config = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
            in_tests { next }
            { lines++ }
            /^[[:space:]]*pub (fn|struct|enum|trait|mod|const|static|type|use|unsafe fn) / { items++ }
            /^[[:space:]]*pub [a-z_0-9]+:/ { items++; opts += in_config }
            $0 ~ configs { in_config = 1 }
            /^}/ { in_config = 0 }
            END { printf "%-12s %8d %6d %5d\n", crate, lines, items, opts }'
done | awk '{ print; lines += $2; items += $3; opts += $4 }
            END { printf "%-12s %8d %6d %5d\n", "TOTAL", lines, items, opts }'
