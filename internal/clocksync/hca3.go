package clocksync

import (
	"hclocksync/internal/clock"
	"hclocksync/internal/mpi"
)

// HCA3 is the paper's new clock synchronization algorithm (Alg. 1). Like
// HCA2 it needs only O(log p) rounds, but instead of learning models bottom
// up and merging them at the root, it pushes the reference time down a
// binomial tree: a rank that has already synchronized emulates the global
// clock when serving as a reference in later rounds (the PulseSync idea
// adapted to MPI). Every rank's final model is therefore a direct, single
// linear model against the (emulated) root clock — no merging error.
type HCA3 struct {
	Params Params
}

// Name returns the paper-style label, e.g.
// "hca3/recompute intercept/1000/SKaMPI-Offset/100".
func (h HCA3) Name() string { return h.Params.withDefaults().label("hca3") }

// Sync implements Alg. 1.
func (h HCA3) Sync(comm *mpi.Comm, clk clock.Clock) clock.Clock {
	p := h.Params.forSync()
	nprocs := comm.Size()
	r := comm.Rank()
	nrounds := log2floor(nprocs)
	maxPower := 1 << nrounds

	myClk := clk // dummy global clock (identity model)

	// Step 1: ranks 0 … maxPower−1, top of the binomial tree first.
	for i := nrounds; i >= 1; i-- {
		if r >= maxPower {
			break
		}
		running := 1 << i
		next := 1 << (i - 1)
		switch {
		case r%running == 0:
			// Reference for this round: emulate the global clock.
			other := r + next
			LearnClockModel(comm, p, r, other, myClk)
		case r%running == next:
			other := r - next
			lm := LearnClockModel(comm, p, other, r, myClk)
			myClk = clock.New(clk, lm)
		}
	}

	// Step 2: the remainder ranks maxPower … nprocs−1 synchronize against
	// their already-synchronized partner r − maxPower.
	if r >= maxPower {
		other := r - maxPower
		lm := LearnClockModel(comm, p, other, r, myClk)
		myClk = clock.New(clk, lm)
	} else if r < nprocs-maxPower {
		other := r + maxPower
		LearnClockModel(comm, p, r, other, myClk)
	}
	return myClk
}

// log2floor returns floor(log2(n)) for n >= 1.
func log2floor(n int) int {
	k := 0
	for 1<<(k+1) <= n {
		k++
	}
	return k
}
