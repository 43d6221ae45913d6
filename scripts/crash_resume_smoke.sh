#!/usr/bin/env bash
# Crash/resume smoke test: run leakopt with checkpointing, SIGKILL it as
# soon as the first snapshot lands on disk, resume from the snapshot, and
# verify the resumed search reaches the same result as an uninterrupted
# run (identical per-gate leakage CSV) without counting more leaves or
# state nodes than it (the -stats counters).
#
# Usage: scripts/crash_resume_smoke.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
WORK="${1:-$(mktemp -d)}"
mkdir -p "$WORK"
echo "workdir: $WORK"

go build -o "$WORK/leakopt" ./cmd/leakopt
go build -o "$WORK/benchgen" ./cmd/benchgen

# A seeded random circuit big enough that the search does not finish
# before the kill, small enough that the smoke stays fast.
"$WORK/benchgen" -random smoke:7:14:150 -out "$WORK"

COMMON=(-in "$WORK/smoke.bench" -method heu2 -heu2sec 30 -workers 1
        -vectors 200 -penalty 5 -stats)

echo "--- reference run (uninterrupted, checkpoint enabled)"
"$WORK/leakopt" "${COMMON[@]}" \
    -checkpoint "$WORK/ref.ckpt" -checkpoint-interval 1h \
    -report-csv "$WORK/ref.csv" | tee "$WORK/ref.log"
test ! -e "$WORK/ref.ckpt" || { echo "FAIL: completed run left ref.ckpt"; exit 1; }

echo "--- crash run (SIGKILL on first snapshot)"
set +e
"$WORK/leakopt" "${COMMON[@]}" \
    -checkpoint "$WORK/smoke.ckpt" -checkpoint-interval 25ms \
    -report-csv "$WORK/crash.csv" >"$WORK/crash.log" 2>&1 &
PID=$!
for _ in $(seq 1 400); do
    [ -e "$WORK/smoke.ckpt" ] && break
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.025
done
if kill -0 "$PID" 2>/dev/null; then
    kill -9 "$PID"
    wait "$PID" 2>/dev/null
    KILLED=1
else
    # The search finished before we could kill it; the resume below then
    # simply verifies a fresh -resume start matches the reference.
    wait "$PID"
    KILLED=0
fi
set -e
echo "killed=$KILLED snapshot_present=$([ -e "$WORK/smoke.ckpt" ] && echo yes || echo no)"

echo "--- resume run"
"$WORK/leakopt" "${COMMON[@]}" \
    -checkpoint "$WORK/smoke.ckpt" -checkpoint-interval 1h -resume \
    -report-csv "$WORK/resumed.csv" | tee "$WORK/resumed.log"
test ! -e "$WORK/smoke.ckpt" || { echo "FAIL: completed resume left smoke.ckpt"; exit 1; }

echo "--- comparing per-gate reports"
if ! diff -u "$WORK/ref.csv" "$WORK/resumed.csv"; then
    echo "FAIL: resumed result differs from uninterrupted run"
    exit 1
fi

# counter NAME LOG prints the -stats counter NAME ("leaves", "state nodes")
# of a run's log.
counter() {
    sed -nE "s/.*[ ,]$1 ([0-9]+).*/\1/p" "$2" | head -n 1
}
echo "--- comparing -stats counters"
for name in "leaves" "state nodes"; do
    ref=$(counter "$name" "$WORK/ref.log")
    got=$(counter "$name" "$WORK/resumed.log")
    echo "$name: reference $ref, resumed $got"
    if [ -z "$ref" ] || [ -z "$got" ]; then
        echo "FAIL: no '$name' counter in the -stats output"
        exit 1
    fi
    if [ "$got" -gt "$ref" ]; then
        echo "FAIL: the resumed run counts more $name than the uninterrupted run"
        exit 1
    fi
done
echo "PASS: resumed run matches the uninterrupted reference"
