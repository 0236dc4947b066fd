#!/bin/sh
# fleet_smoke.sh runs two short evaluations twice each — serially and
# across a worker fleet — and proves each pair's encoded databases are
# byte-identical (equal SHA-256): every simulated machine across 3
# workers, and Modern/server-128B, the geometry whose DRAM timing costs
# the most to derive, across 2 workers that build it on the timing the
# coordinator ships. Driven by `make fleet-smoke`.
set -eu

GO=${GO:-go}
bin=$(mktemp -t lmbench-fleet.XXXXXX)
serial=$(mktemp -t lmbench-fleet-serial.XXXXXX)
fleet=$(mktemp -t lmbench-fleet-fleet.XXXXXX)
cleanup() {
    rm -f "$bin" "$serial" "$fleet"
}
trap cleanup EXIT INT TERM

$GO build -o "$bin" ./cmd/lmbench

sum() {
    if command -v sha256sum > /dev/null 2>&1; then
        sha256sum "$1" | cut -d' ' -f1
    else
        shasum -a 256 "$1" | cut -d' ' -f1
    fi
}

# same <label> <workers> <lmbench args...> runs the args serially and
# across the fleet and fails unless the databases match.
same() {
    label=$1
    workers=$2
    shift 2
    "$bin" "$@" -fast -quiet -out "$serial" > /dev/null
    "$bin" "$@" -fast -quiet -fleet-workers "$workers" -out "$fleet" > /dev/null
    s=$(sum "$serial")
    f=$(sum "$fleet")
    if [ "$s" != "$f" ]; then
        echo "fleet-smoke: FLEET DIVERGED ($label): serial $s != fleet $f" >&2
        exit 1
    fi
    echo "fleet-smoke: ok ($label: serial == $workers-worker fleet, sha256 $s)"
}

same all-sim 3 -machine all-sim -only table2,table7
same Modern/server-128B 2 -machine Modern/server-128B -only table2,table11
