//go:build !race

// Package raceflag tells tests whether the race detector is compiled in,
// so a test whose cost the detector multiplies beyond a CI run's budget
// (whole solves repeated many times) can skip under it.
package raceflag

// Enabled reports whether the binary was built with -race.
const Enabled = false
