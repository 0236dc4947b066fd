#!/bin/sh
# calibrate_smoke.sh proves the machine catalog and the calibrator end
# to end through the CLI:
#
#   1. declarative profiles — a run driven by a -profile file is
#      byte-identical to the same run on the compiled-in profile, so a
#      profile JSON is a complete definition of a simulated machine;
#   2. calibration — perturb a profile parameter, fit it back against
#      a measured target database, and prove the emitted profile
#      reproduces the target within tolerance;
#   3. cache isolation — a calibration's candidate units never serve a
#      plain run: the candidates run under the fitter's quality gate,
#      so a run sharing their unit cache must still match a cold run
#      byte for byte.
#
# Driven by `make calibrate-smoke`.
set -eu

GO=${GO:-go}
bin=$(mktemp -t lmbench-cal.XXXXXX)
dir=$(mktemp -d -t lmbench-cal-dir.XXXXXX)
cleanup() {
    rm -rf "$bin" "$dir"
}
trap cleanup EXIT INT TERM

$GO build -o "$bin" ./cmd/lmbench

machine='Linux/i586'

# --- 1. profile-file byte identity -----------------------------------
"$bin" -dump-profile "$machine" > "$dir/i586.json"
"$bin" -machine "$machine" -fast -only table7,table8,table16 -quiet -out "$dir/compiled.db" > /dev/null
"$bin" -profile "$dir/i586.json" -machine "$machine" -fast -only table7,table8,table16 -quiet -out "$dir/loaded.db" > /dev/null
if ! cmp -s "$dir/compiled.db" "$dir/loaded.db"; then
    echo "calibrate-smoke: file-loaded profile run differs from compiled-in run" >&2
    exit 1
fi
echo "profile file: byte-identical run"

# --- 2. perturb -> fit -> verify -------------------------------------
# The target is what the pristine machine actually measures.
"$bin" -machine "$machine" -fast -only table7,table8 -quiet -out "$dir/want.db" > /dev/null

# Perturb the syscall cost (2us -> 5us in the canonical encoding).
sed 's/"SyscallUS": 2,/"SyscallUS": 5,/' "$dir/i586.json" > "$dir/pert.json"
if cmp -s "$dir/i586.json" "$dir/pert.json"; then
    echo "calibrate-smoke: perturbation did not change the profile" >&2
    exit 1
fi

"$bin" -profile "$dir/pert.json" -calibrate -machine "$machine" \
    -target "$dir/want.db" -emit "$dir/fitted.json" -quiet

# The fitted profile must run and reproduce the target's lat_syscall
# within 10%.
"$bin" -profile "$dir/fitted.json" -machine "$machine" -fast -only table7 -quiet -out "$dir/fitted.db" > /dev/null

scalar() {
    # results text format: entry "bench" "machine" "unit" <scalar>
    awk -v b="\"$1\"" '$1 == "entry" && $2 == b { print $5; exit }' "$2"
}
want=$(scalar lat_syscall "$dir/want.db")
got=$(scalar lat_syscall "$dir/fitted.db")
if [ -z "$want" ] || [ -z "$got" ]; then
    echo "calibrate-smoke: missing lat_syscall scalar (want='$want' got='$got')" >&2
    exit 1
fi
ok=$(awk -v w="$want" -v g="$got" 'BEGIN {
    d = g - w; if (d < 0) d = -d
    print (d <= 0.10 * w) ? "yes" : "no"
}')
if [ "$ok" != "yes" ]; then
    echo "calibrate-smoke: fitted lat_syscall=$got not within 10% of target $want" >&2
    exit 1
fi
echo "calibration: recovered lat_syscall=$got (target $want)"

# --- 3. calibration cache vs. plain runs ------------------------------
# The identity candidate of a paper fit uses the plain run's fast
# adaptive options; only the quality gate tells their units apart.
"$bin" -calibrate -machine 'Linux/i686' -target paper -unit-cache "$dir/cache" -quiet > /dev/null
"$bin" -machine 'Linux/i686' -fast -sweep adaptive -unit-cache "$dir/cache" -quiet -out "$dir/warm.db" > /dev/null
"$bin" -machine 'Linux/i686' -fast -sweep adaptive -quiet -out "$dir/cold.db" > /dev/null
if ! cmp -s "$dir/cold.db" "$dir/warm.db"; then
    echo "calibrate-smoke: a run sharing the calibration's unit cache differs from a cold run" >&2
    exit 1
fi
echo "cache isolation: run after calibration byte-identical to a cold run"
echo "calibrate-smoke: OK"
