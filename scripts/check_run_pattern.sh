#!/usr/bin/env bash
# Fails when a `go test -run` pattern selects no test in one of the
# packages it is run over, so a targeted CI step cannot silently pass a
# package by running nothing there.
#
# Usage: scripts/check_run_pattern.sh <pattern> <package>...
set -euo pipefail

pattern=$1
shift
status=0
for pkg in "$@"; do
    n=$(go test -list "$pattern" "$pkg" | grep -cE '^(Test|Example|Fuzz)' || true)
    echo "$pkg: $n tests match"
    if [ "$n" -eq 0 ]; then
        echo "FAIL: -run pattern matches no test in $pkg"
        status=1
    fi
done
exit "$status"
