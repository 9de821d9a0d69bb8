package clocksync

import (
	"hclocksync/internal/clock"
	"hclocksync/internal/mpi"
)

// AccuracySample is the measured residual offset of one client's global
// clock against the root's global clock, directly after synchronization and
// again WaitTime seconds later (paper Alg. 6).
type AccuracySample struct {
	Rank   int
	At0    float64 // global-clock offset right after sync (seconds)
	AtWait float64 // offset WaitTime seconds later (seconds)
}

// CheckConfig parameterizes CheckAccuracy.
type CheckConfig struct {
	// Offset is the measurement building block (defaults to
	// SKaMPIOffset{10}).
	Offset OffsetAlg
	// WaitTime is how long to wait before the second measurement pass.
	WaitTime float64
	// SampleStride checks only clients with (rank−1)%stride == 0; the
	// paper samples 10% of 16k Titan processes this way. 0/1 = all.
	SampleStride int
}

// CheckAccuracy implements Alg. 6: rank 0 measures the offset between its
// global clock and each sampled client's global clock, busy-waits WaitTime
// seconds on the global clock, and measures again. It must be called
// collectively. Rank 0 returns one sample per checked client (the client
// ships its measured offset back in an extra 8-byte message, a harness
// convenience the pseudo-code leaves implicit); other ranks return nil.
func CheckAccuracy(comm *mpi.Comm, g clock.Clock, cfg CheckConfig) []AccuracySample {
	if cfg.Offset == nil {
		cfg.Offset = SKaMPIOffset{NExchanges: 10}
	}
	cfg.Offset = offsetForSync(cfg.Offset)
	if cfg.SampleStride < 1 {
		cfg.SampleStride = 1
	}
	const pRef = 0
	r := comm.Rank()
	sampled := func(q int) bool { return q != pRef && (q-1)%cfg.SampleStride == 0 }

	if r == pRef {
		timestamp := g.Time()
		var out []AccuracySample
		for q := 0; q < comm.Size(); q++ {
			if !sampled(q) {
				continue
			}
			cfg.Offset.MeasureOffset(comm, g, pRef, q)
			out = append(out, AccuracySample{Rank: q, At0: comm.RecvF64(q, tagCheck)})
		}
		if cfg.WaitTime > 0 {
			clock.WaitUntil(comm.Proc(), g, timestamp+cfg.WaitTime)
		}
		for i := range out {
			q := out[i].Rank
			cfg.Offset.MeasureOffset(comm, g, pRef, q)
			out[i].AtWait = comm.RecvF64(q, tagCheck)
		}
		return out
	}
	if sampled(r) {
		o := cfg.Offset.MeasureOffset(comm, g, pRef, r)
		comm.SendF64(pRef, tagCheck, o.Offset)
		o = cfg.Offset.MeasureOffset(comm, g, pRef, r)
		comm.SendF64(pRef, tagCheck, o.Offset)
	}
	return nil
}

// MaxAbsOffsets reduces accuracy samples to the paper's headline metric:
// the maximum absolute clock offset across clients, at 0 s and at WaitTime.
func MaxAbsOffsets(samples []AccuracySample) (at0, atWait float64) {
	for _, s := range samples {
		if a := abs(s.At0); a > at0 {
			at0 = a
		}
		if a := abs(s.AtWait); a > atWait {
			atWait = a
		}
	}
	return at0, atWait
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
