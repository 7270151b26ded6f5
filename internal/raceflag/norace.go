//go:build !race

// Package raceflag tells tests whether the race detector is compiled in.
// Exact allocation counts only hold without it: under -race sync.Pool
// drops a share of what is put into it, so a pooled buffer is sometimes
// allocated afresh.
package raceflag

// Enabled reports whether the binary was built with -race.
const Enabled = false
