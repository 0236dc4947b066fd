#!/bin/sh
# sweep_smoke.sh proves adaptive sweep planning end to end through the
# CLI: an adaptive run reports real point savings on the memory-sweep
# experiments, is byte-identical at GOMAXPROCS 1 and 4 and on a
# 2-worker fleet (whose sweep: line counts the workers' planning), and
# the modes that must not compose (adaptive+chaos, adaptive resume of
# an exhaustive journal) are refused. Driven by `make sweep-smoke`.
set -eu

GO=${GO:-go}
bin=$(mktemp -t lmbench-sweep.XXXXXX)
adp1=$(mktemp -t lmbench-sweep-a1.XXXXXX)
adp4=$(mktemp -t lmbench-sweep-a4.XXXXXX)
adpf=$(mktemp -t lmbench-sweep-af.XXXXXX)
jnl=$(mktemp -t lmbench-sweep-jnl.XXXXXX)
log=$(mktemp -t lmbench-sweep-log.XXXXXX)
cleanup() {
    rm -f "$bin" "$adp1" "$adp4" "$adpf" "$jnl" "$log"
}
trap cleanup EXIT INT TERM

$GO build -o "$bin" ./cmd/lmbench

# stats FIELD: pull one counter out of the run's `sweep:` line.
stats() {
    sed -n "s/^sweep: .*$1=\([0-9]*\).*/\1/p" "$log"
}

sum() {
    if command -v sha256sum > /dev/null 2>&1; then
        sha256sum "$1" | cut -d' ' -f1
    else
        shasum -a 256 "$1" | cut -d' ' -f1
    fi
}

# Adaptive run: the planner must skip at least as many grid points as
# it measures on the memory-hierarchy sweep (the >=2x reduction gate).
GOMAXPROCS=1 "$bin" -machine 'Linux/i686' -only figure1,table6 -sweep adaptive -out "$adp1" > /dev/null 2> "$log"
measured=$(stats measured)
skipped=$(stats skipped)
if [ -z "$measured" ] || [ "$measured" -eq 0 ]; then
    echo "sweep-smoke: no sweep stats line (measured=$measured)" >&2
    exit 1
fi
if [ "$skipped" -lt "$measured" ]; then
    echo "sweep-smoke: weak reduction: measured=$measured skipped=$skipped (want skipped >= measured)" >&2
    exit 1
fi

# A 4-wide adaptive run is byte-identical: planning decisions depend
# only on measured values, never on execution order.
GOMAXPROCS=4 "$bin" -machine 'Linux/i686' -only figure1,table6 -sweep adaptive -out "$adp4" > /dev/null 2> "$log"
a1=$(sum "$adp1")
a4=$(sum "$adp4")
if [ "$a1" != "$a4" ]; then
    echo "sweep-smoke: PARALLEL ADAPTIVE DIVERGED: GOMAXPROCS=1 $a1 != GOMAXPROCS=4 $a4" >&2
    exit 1
fi

# A 2-worker fleet plans in its worker processes: its database is
# byte-identical, and its sweep: line, summed from the events the
# workers send back, reads the same counts as the in-process run.
"$bin" -machine 'Linux/i686' -only figure1,table6 -sweep adaptive -fleet-workers 2 -out "$adpf" > /dev/null 2> "$log"
af=$(sum "$adpf")
if [ "$a1" != "$af" ]; then
    echo "sweep-smoke: FLEET ADAPTIVE DIVERGED: GOMAXPROCS=1 $a1 != fleet $af" >&2
    exit 1
fi
fleet_line=$(grep '^sweep: ' "$log" || true)
if [ "$fleet_line" != "sweep: measured=$measured skipped=$skipped" ]; then
    echo "sweep-smoke: fleet sweep line \"$fleet_line\" != \"sweep: measured=$measured skipped=$skipped\"" >&2
    exit 1
fi

# Adaptive + chaos must be refused: injected noise would steer the
# planner's transition detection.
if "$bin" -machine 'Linux/i686' -only figure1 -sweep adaptive -chaos 'seed=1,err=0.3' > /dev/null 2> "$log"; then
    echo "sweep-smoke: -sweep adaptive -chaos was accepted" >&2
    exit 1
fi
if ! grep -q 'does not compose' "$log"; then
    echo "sweep-smoke: adaptive+chaos refusal has wrong message:" >&2
    cat "$log" >&2
    exit 1
fi

# An adaptive run must refuse to replay an exhaustive journal: the
# replayed entries would silently claim full-grid coverage. The sweep
# mode is part of the configuration digest every journal record
# carries.
"$bin" -machine 'Linux/i686' -only figure1,table6 -journal "$jnl" > /dev/null 2> "$log"
if "$bin" -machine 'Linux/i686' -only figure1,table6 -sweep adaptive -resume "$jnl" > /dev/null 2> "$log"; then
    echo "sweep-smoke: adaptive resume of an exhaustive journal was accepted" >&2
    exit 1
fi
if ! grep -q 'written under other run options' "$log"; then
    echo "sweep-smoke: cross-mode resume refusal has wrong message:" >&2
    cat "$log" >&2
    exit 1
fi

echo "sweep-smoke: ok (measured=$measured skipped=$skipped, GOMAXPROCS 1 and 4 and a 2-worker fleet byte-identical $a1, chaos and cross-mode resume refused)"
