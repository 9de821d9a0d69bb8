#!/usr/bin/env bash
# Kill-and-resume integration check for the checkpoint subsystem: run a
# sweep with a checkpoint ledger, SIGKILL it mid-flight, resume with
# -restore, and assert that (1) the resumed output is byte-identical to an
# uninterrupted run, (2) the manifests describe the same work, and (3) at
# least one task was served from the ledger rather than recomputed.
#
# Every checkpointable mpirun is one list of phases run by the experiments'
# one phase mechanism: faults always runs with cuts; fig3 (and fig4-fig6)
# and fig7 keep two pinned schedules and take the cut one under
# -checkpoint; scale serves its finished sweep points from the ledger.
#
# Usage: scripts/kill_resume.sh [suite]   (default: faults)
set -euo pipefail
cd "$(dirname "$0")/.."

suite=${1:-faults}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/runexp" ./cmd/runexp
args=(-suite "$suite" -scale tiny -jobs 1 -cache "" -quiet -seed 424242)

# Uninterrupted reference run. Checkpointing stays on so fig3-fig7 take
# the same cut schedule as the killed run.
"$tmp/runexp" "${args[@]}" -checkpoint "$tmp/clean.ckpt" -outdir "$tmp/clean" >/dev/null

# Checkpointed run, SIGKILLed as soon as the ledger holds any progress.
"$tmp/runexp" "${args[@]}" -checkpoint "$tmp/run.ckpt" -outdir "$tmp/killed" >/dev/null 2>&1 &
pid=$!
for _ in $(seq 1 400); do
    [ -s "$tmp/run.ckpt" ] && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.02
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
if ! [ -s "$tmp/run.ckpt" ]; then
    echo "kill_resume: run left no ledger to resume from" >&2
    exit 1
fi

# Resume from the ledger in a fresh process.
"$tmp/runexp" "${args[@]}" -restore "$tmp/run.ckpt" -outdir "$tmp/resumed" >/dev/null

diff -u "$tmp/clean/$suite.txt" "$tmp/resumed/$suite.txt" || {
    echo "kill_resume: resumed output differs from the uninterrupted run" >&2
    exit 1
}
go run ./scripts/manifestdiff "$tmp/clean/manifest.json" "$tmp/resumed/manifest.json"
if ! grep -q '"checkpoint_hit": true' "$tmp/resumed/manifest.json"; then
    echo "kill_resume: resume recomputed every task — nothing came from the ledger" >&2
    exit 1
fi
echo "kill_resume: OK ($suite resumed byte-identically with ledger hits)"
