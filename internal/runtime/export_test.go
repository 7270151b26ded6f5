package runtime

import "time"

// SetMasterTick sets the period of every local master's ticker. Called
// before the first round, it holds for the whole session.
func SetMasterTick(rt *Runtime, d time.Duration) {
	for _, p := range rt.procs {
		p.tick = d
	}
}
