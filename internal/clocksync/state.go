package clocksync

// Checkpoint support for synchronized clocks. A synced clock is a stack of
// linear drift models over the rank's local hardware clock (the decorator
// nesting of paper §IV-B); the models are plain numbers, so capturing the
// stack and rebuilding it over a fresh Local in a resumed process yields a
// clock whose every reading is bit-identical — the nesting order is
// preserved rather than collapsed, because Collapse's merged model is
// mathematically but not floating-point-identical to the nested stack.

import "hclocksync/internal/clock"

// SyncState is the serializable state of one rank's synchronized clock: the
// drift models from innermost (closest to the hardware clock) to outermost.
// Phased experiments carry it across cuts as JSON, which round-trips every
// float64 bit-exactly; synclint's cachekey analyzer keeps its fields
// JSON-visible.
type SyncState struct {
	Models []clock.LinearModel
}

// CaptureClock captures the model stack of a synchronized clock produced by
// any of the Algorithms. The clock must be a (possibly empty) stack of
// GlobalClockLM decorators over a *clock.Local.
func CaptureClock(c clock.Clock) SyncState {
	var st SyncState
	for {
		g, ok := c.(*clock.GlobalClockLM)
		if !ok {
			return st
		}
		st.Models = append([]clock.LinearModel{g.Model}, st.Models...)
		c = g.Base
	}
}

// Rebuild reconstructs the synchronized clock over base, reproducing the
// captured nesting exactly.
func (st SyncState) Rebuild(base clock.Clock) clock.Clock {
	c := base
	for _, m := range st.Models {
		c = clock.New(c, m)
	}
	return c
}
