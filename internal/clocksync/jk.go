package clocksync

import (
	"hclocksync/internal/clock"
	"hclocksync/internal/mpi"
)

// JK is the clock synchronization algorithm of Jones & Koenig: the root
// learns a drift model with every client *sequentially*, which makes it
// O(p) rounds — accurate for small p (the paper found it the most accurate
// on 512-process Jupiter runs) but prohibitively slow at scale, and worse
// than the HCA family on machines whose drift changes quickly (Hydra).
//
// The paper reports that swapping JK's native Mean-RTT-Offset for
// SKaMPI-Offset "boosts" its precision; both work here via Params.Offset.
type JK struct {
	Params Params
}

// Name returns the paper-style label, e.g. "jk/1000/SKaMPI-Offset/20".
func (j JK) Name() string { return j.Params.withDefaults().label("jk") }

// Sync runs the sequential root-to-client model learning.
func (j JK) Sync(comm *mpi.Comm, clk clock.Clock) clock.Clock {
	p := j.Params.forSync()
	r := comm.Rank()
	if r == 0 {
		for q := 1; q < comm.Size(); q++ {
			LearnClockModel(comm, p, 0, q, clk)
		}
		return clk
	}
	lm := LearnClockModel(comm, p, 0, r, clk)
	return clock.New(clk, lm)
}
