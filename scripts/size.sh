#!/usr/bin/env bash
# Size yardstick (ROADMAP "quality of design"): non-test lines, `pub`
# items and `opts` per crate, each file counted up to its first
# `#[cfg(test)]`. `opts` is the number of `pub` fields in the
# configuration structs named below — each an independently settable
# value. CHANGES.md entries copy the TOTAL row before and after.
#
#   scripts/size.sh [repo-root]                  report only
#   scripts/size.sh --check CEILING [repo-root]  report, then fail when the
#                                                TOTAL pub items or opts differ
#                                                from the ceiling file's numbers
#
# CEILING holds one `pub N` and one `opts N` line (`#` starts a comment).
# Lines are never gated: a perf change may add lines on purpose. A change
# that adds a pub item or an option raises the ceiling in its own diff,
# and one that removes some lowers it there too: a total below the
# ceiling fails as well, printing the lines to write.
set -euo pipefail

ceiling=
if [[ "${1:-}" == "--check" ]]; then
    ceiling="$(cd "$(dirname "$2")" && pwd)/$(basename "$2")"
    shift 2
fi
cd "${1:-$(dirname "$0")/..}"

configs='Options|StoreConfig|VlogParams|ServeConfig|ReplicaConfig|ShardConfig|ChaosConfig|GcConfig'

report=$(
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
)
echo "$report"
[[ -z "$ceiling" ]] && exit 0

read -r _ _ pub opts <<< "$(tail -n 1 <<< "$report")"
max_pub=$(awk '$1 == "pub" { print $2 }' "$ceiling")
max_opts=$(awk '$1 == "opts" { print $2 }' "$ceiling")
if [[ -z "$max_pub" || -z "$max_opts" ]]; then
    echo "size.sh: $ceiling needs a \`pub N\` and an \`opts N\` line" >&2
    exit 2
fi
if (( pub == max_pub && opts == max_opts )); then
    exit 0
fi
if (( pub > max_pub )); then
    echo "size.sh: $pub pub items exceed the ceiling of $max_pub ($ceiling)" >&2
fi
if (( opts > max_opts )); then
    echo "size.sh: $opts opts exceed the ceiling of $max_opts ($ceiling)" >&2
fi
if (( pub < max_pub || opts < max_opts )); then
    echo "size.sh: the totals fell below the ceiling of pub $max_pub, opts $max_opts ($ceiling is stale)" >&2
fi
echo "size.sh: the ceiling that matches this tree:" >&2
printf 'pub %d\nopts %d\n' "$pub" "$opts" >&2
exit 1
