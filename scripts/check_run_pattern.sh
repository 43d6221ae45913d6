#!/usr/bin/env bash
# Fails when a `go test -run` pattern selects no test in one of the
# packages it is run over, or when one of its `|` alternatives selects no
# test in any of them, so a targeted CI step cannot silently pass a
# package by running nothing there, and a renamed test cannot silently
# drop out of the pattern.
#
# Usage: scripts/check_run_pattern.sh <pattern> <package>...
#
# The alternatives are split at every `|`, so the pattern must not group
# them in parentheses.
set -euo pipefail

pattern=$1
shift
status=0
names=""
for pkg in "$@"; do
    out=$(go test -list . "$pkg")
    list=$(grep -E '^(Test|Example|Fuzz)' <<<"$out" || true)
    n=$(grep -cE -- "$pattern" <<<"$list" || true)
    echo "$pkg: $n tests match"
    if [ "$n" -eq 0 ]; then
        echo "FAIL: -run pattern matches no test in $pkg"
        status=1
    fi
    names+="$list"$'\n'
done
IFS='|' read -ra alternatives <<<"$pattern"
for alt in "${alternatives[@]}"; do
    if ! grep -qE -- "$alt" <<<"$names"; then
        echo "FAIL: -run alternative '$alt' matches no test in the listed packages"
        status=1
    fi
done
exit "$status"
