#!/usr/bin/env bash
# Chaos check for the fault-tolerant sweep fabric: run a multi-suite sweep
# on supervised worker processes (-fabric), SIGKILL workers on a schedule
# while it runs, and assert that (1) the output is byte-identical to an
# undisturbed in-process run at the same seed, and (2) the manifest's
# fabric counters prove the machinery actually engaged — at least one
# retry, one lease takeover, and one checkpoint-ledger migration.
#
# Kills land at random points, so a single round may finish before any
# worker holds a job (counters all zero); the experiment retries a few
# times before declaring the fabric untested. Byte-identity, by contrast,
# must hold on every round.
#
# Usage: scripts/fabric_chaos.sh [suites]   (default: faults,fig3,fig7)
set -euo pipefail
cd "$(dirname "$0")/.."

suites=${1:-faults,fig3,fig7}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/runexp" ./cmd/runexp
args=(-suite "$suites" -scale tiny -cache "" -quiet -seed 424242)

# Undisturbed in-process reference. Checkpointing stays on so fig3 and
# fig7, which keep two pinned schedules, take the same cut schedule as the
# fabric run; faults has only the one (it always runs with cuts).
"$tmp/runexp" "${args[@]}" -jobs 4 -checkpoint "$tmp/ref.ckpt" -outdir "$tmp/ref" >/dev/null

# counter NAME FILE -> value of the fabric stat in the manifest (no jq).
counter() {
    grep -o "\"$1\": *[0-9]*" "$2" | head -n1 | grep -o '[0-9]*$' || echo 0
}

ok=
for round in 1 2 3 4 5; do
    rm -rf "$tmp/fab" "$tmp/fab.ckpt"

    "$tmp/runexp" "${args[@]}" -fabric 4 -checkpoint "$tmp/fab.ckpt" -outdir "$tmp/fab" >/dev/null 2>&1 &
    pid=$!

    # Kill schedule: SIGKILL the coordinator's worker children every 150 ms
    # while the sweep is in flight. Six bursts against a ~1 s tiny sweep
    # keep plenty of kills landing mid-job without exhausting any slot's
    # respawn budget.
    for _ in 1 2 3 4 5 6; do
        sleep 0.15
        kill -0 "$pid" 2>/dev/null || break
        pkill -9 -P "$pid" 2>/dev/null || true
    done

    if ! wait "$pid"; then
        echo "fabric_chaos: round $round: coordinator died instead of absorbing worker kills" >&2
        exit 1
    fi

    IFS=, read -ra names <<<"$suites"
    for s in "${names[@]}"; do
        diff -u "$tmp/ref/$s.txt" "$tmp/fab/$s.txt" || {
            echo "fabric_chaos: round $round: $s output differs from the in-process run" >&2
            exit 1
        }
    done

    retries=$(counter retries "$tmp/fab/manifest.json")
    takeovers=$(counter lease_takeovers "$tmp/fab/manifest.json")
    migrations=$(counter ledger_migrations "$tmp/fab/manifest.json")
    echo "fabric_chaos: round $round: byte-identical; retries=$retries takeovers=$takeovers migrations=$migrations"
    if [ "$retries" -ge 1 ] && [ "$takeovers" -ge 1 ] && [ "$migrations" -ge 1 ]; then
        ok=1
        break
    fi
done

if [ -z "$ok" ]; then
    echo "fabric_chaos: no round exercised retry+takeover+migration — kills never landed mid-job" >&2
    exit 1
fi
echo "fabric_chaos: OK ($suites byte-identical under worker SIGKILLs, fabric counters engaged)"
