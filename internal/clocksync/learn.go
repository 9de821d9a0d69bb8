package clocksync

import (
	"fmt"

	"hclocksync/internal/clock"
	"hclocksync/internal/mpi"
	"hclocksync/internal/stats"
)

// Algorithm is a clock synchronization algorithm: called collectively on a
// communicator, it returns each rank's logical global clock. The base clock
// clk may itself be a logical clock, which is what lets algorithms stack
// hierarchically (paper §IV).
type Algorithm interface {
	Sync(comm *mpi.Comm, clk clock.Clock) clock.Clock
	Name() string
}

// Params bundles the knobs shared by the model-learning algorithms
// (HCA/HCA2/HCA3/JK): the paper's label
// "hca3/recompute intercept/1000/SKaMPI-Offset/100" maps to
// {RecomputeIntercept: true, NFitpoints: 1000, Offset: SKaMPIOffset{100}}.
type Params struct {
	NFitpoints         int
	Offset             OffsetAlg
	RecomputeIntercept bool
}

func (p Params) withDefaults() Params {
	if p.NFitpoints <= 0 {
		p.NFitpoints = 100
	}
	if p.Offset == nil {
		p.Offset = SKaMPIOffset{NExchanges: 10}
	}
	return p
}

// offsetForSync binds o to one rank's one Sync call. Every algorithm calls
// it (through Params.forSync) where its Sync starts: Mean-RTT-Offset gets a
// fresh Alg. 8 session, stateless offset algorithms such as SKaMPI-Offset
// pass through unchanged.
func offsetForSync(o OffsetAlg) OffsetAlg {
	if m, ok := o.(MeanRTTOffset); ok {
		return m.forSync()
	}
	return o
}

// forSync returns p with its offset algorithm bound to one Sync call.
func (p Params) forSync() Params {
	p.Offset = offsetForSync(p.Offset)
	return p
}

// label renders the paper's algorithm naming convention.
func (p Params) label(alg string) string {
	ri := ""
	if p.RecomputeIntercept {
		ri = "recompute intercept/"
	}
	return fmt.Sprintf("%s/%s%d/%s", alg, ri, p.NFitpoints, p.Offset.Name())
}

// LearnClockModel implements Alg. 2: both ranks of the (ref, client) pair
// collect NFitpoints offset samples; the client fits a linear drift model
// by least squares and — if RecomputeIntercept is set — re-anchors the
// intercept with one fresh offset measurement. The client returns the
// fitted model; the reference returns the zero model.
func LearnClockModel(comm *mpi.Comm, p Params, ref, client int, clk clock.Clock) clock.LinearModel {
	p = p.withDefaults()
	me := comm.Rank()
	switch me {
	case ref:
		for i := 0; i < p.NFitpoints; i++ {
			p.Offset.MeasureOffset(comm, clk, ref, client)
		}
		if p.RecomputeIntercept {
			p.Offset.MeasureOffset(comm, clk, ref, client)
		}
		return clock.LinearModel{}
	case client:
		buf := getSampleBuf(p.NFitpoints)
		defer putSampleBuf(buf)
		xfit, yfit := buf.x, buf.y
		for i := 0; i < p.NFitpoints; i++ {
			o := p.Offset.MeasureOffset(comm, clk, ref, client)
			xfit[i] = o.Timestamp
			yfit[i] = o.Offset
		}
		fit := stats.FitLinear(xfit, yfit)
		lm := clock.LinearModel{Slope: fit.Slope, Intercept: fit.Intercept}
		if p.RecomputeIntercept {
			o := p.Offset.MeasureOffset(comm, clk, ref, client)
			// Anchor the line exactly through the fresh sample
			// (Alg. 2 line 21).
			lm.Intercept = lm.Slope*(-o.Timestamp) + o.Offset
		}
		return lm
	default:
		panic(fmt.Sprintf("clocksync: rank %d in LearnClockModel(%d,%d)", me, ref, client))
	}
}
