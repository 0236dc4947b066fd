package lmbench

import "repro/internal/calibrate"

// This file re-exports the calibration surface that WithCalibrateTarget
// consumes: fitting a simulated machine's profile so the suite
// reproduces target measurements — the paper's numbers, a stored run,
// or a host-backend run of the real machine. The fitter is coordinate
// descent over the profile's observable parameters; every candidate
// evaluation is a normal suite run (adaptive sweeps, quality gate,
// per-candidate unit cache), so calibration reuses every layer below
// it.

// CalibrationTarget is the set of measurements a calibration descends
// toward; build one with CalibrationFromPaper, CalibrationFromDB or
// CalibrationFromFile.
type CalibrationTarget = calibrate.Target

// CalibrationResult is a finished fit: the fitted profile, the
// per-parameter trace and the final verification database.
type CalibrationResult = calibrate.Result

// CalibrationFromPaper targets the paper's own table values for one of
// its machines (names match the built-in profiles).
func CalibrationFromPaper(machine string) (CalibrationTarget, error) {
	return calibrate.FromPaper(machine)
}

// CalibrationFromDB extracts one machine's scalar measurements from a
// results database — e.g. a host-backend run of the machine being
// modeled.
func CalibrationFromDB(db *DB, machine string) (CalibrationTarget, error) {
	return calibrate.FromDB(db, machine)
}

// CalibrationFromFile reads a results database file (what `lmbench
// -out` writes) and extracts machine's scalars.
func CalibrationFromFile(path, machine string) (CalibrationTarget, error) {
	return calibrate.FromFile(path, machine)
}
