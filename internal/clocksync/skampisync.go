package clocksync

import (
	"fmt"

	"hclocksync/internal/clock"
	"hclocksync/internal/mpi"
)

// SKaMPISync is the classic offset-only synchronization used by SKaMPI and
// NBCBench (paper §II): the root measures the current clock offset to each
// process once, and each process's global clock subtracts that constant.
// No drift model is learned, so — as the paper points out — "the precision
// of the logical, global clock quickly degrades over time". It serves as
// the baseline that motivates the HCA family.
type SKaMPISync struct {
	// Offset is the offset measurement building block (defaults to
	// SKaMPIOffset{100}, the original's minimum-RTT method).
	Offset OffsetAlg
}

func (s SKaMPISync) offset() OffsetAlg {
	if s.Offset == nil {
		return SKaMPIOffset{NExchanges: 100}
	}
	return s.Offset
}

// Name returns the scheme's label.
func (s SKaMPISync) Name() string {
	return fmt.Sprintf("skampi-sync/%s", s.offset().Name())
}

// Sync measures one offset per client, sequentially from rank 0 (O(p)
// rounds, like the original), and wraps the base clock with a
// constant-offset model (slope 0).
func (s SKaMPISync) Sync(comm *mpi.Comm, clk clock.Clock) clock.Clock {
	off := offsetForSync(s.offset())
	r := comm.Rank()
	if r == 0 {
		for q := 1; q < comm.Size(); q++ {
			off.MeasureOffset(comm, clk, 0, q)
		}
		return clk
	}
	o := off.MeasureOffset(comm, clk, 0, r)
	return clock.New(clk, clock.LinearModel{Intercept: o.Offset})
}
