package experiments

import (
	"fmt"
	"io"
	"sort"

	"hclocksync/internal/clock"
	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
	"hclocksync/internal/harness"
	"hclocksync/internal/mpi"
	"hclocksync/internal/stats"
)

// Fig2Config parameterizes the clock-drift validation experiment
// (paper Fig. 2): one rank per compute node repeatedly measures its offset
// to rank 0 over a long horizon; the series reveal nonlinear drift over
// 500 s but near-linear drift within ~10 s windows.
type Fig2Config struct {
	Job         Job
	Duration    float64 // total observation horizon (paper: 500 s)
	SampleEvery float64 // pause between offset measurement epochs
	Exchanges   int     // ping-pongs per offset measurement
	ShortWindow float64 // the "linear" window to validate (paper: 10 s)
}

// DefaultFig2Config mirrors the paper's setup on Hydra with 10 single-rank
// nodes, scaled to a 200 s horizon (the nonlinearity is already clear).
func DefaultFig2Config() Fig2Config {
	return Fig2Config{
		Job: Job{
			Spec:    cluster.Hydra(),
			NProcs:  10,
			Mapping: cluster.MapSpread, // one rank per node, first core
			Seed:    1,
		},
		Duration:    200,
		SampleEvery: 2,
		Exchanges:   10,
		ShortWindow: 10,
	}
}

// DriftPoint is one offset sample of one rank against the reference.
type DriftPoint struct {
	T      float64 // seconds since the experiment start (reference clock)
	Offset float64 // measured offset, seconds (rank − reference)
}

// Fig2Series is one rank's drift trajectory with the paper's two fits.
type Fig2Series struct {
	Rank    int
	Points  []DriftPoint
	FullFit stats.LinReg // fit over the whole horizon (Fig. 2b)
	ShortR2 float64      // R² of the fit over the first ShortWindow seconds (Fig. 2c)
}

// Fig2Result bundles all series.
type Fig2Result struct {
	Config Fig2Config
	Series []Fig2Series
}

// RunFig2 measures the drift trajectories. The whole experiment is one
// mpirun, so it submits as a single engine task — parallelism comes from
// running it alongside other suites, caching from the task's config key.
func RunFig2(eng *harness.Engine, cfg Fig2Config) (*Fig2Result, error) {
	tasks := []harness.Task[[]Fig2Series]{{
		Name:    "drift",
		SeedKey: seedKeyRun(0),
		Config:  cfg, // fully serializable: Job plus four scalars
		Run:     func(seed int64) ([]Fig2Series, error) { return fig2Run(cfg, seed) },
	}}
	series, err := harness.Run(eng, "fig2", cfg.Job.Seed, tasks)
	if err != nil {
		return nil, err
	}
	return &Fig2Result{Config: cfg, Series: series[0]}, nil
}

// fig2Run executes the drift mpirun and fits the paper's two regressions.
func fig2Run(cfg Fig2Config, seed int64) ([]Fig2Series, error) {
	cfg.Job.Seed = seed
	res := &Fig2Result{Config: cfg}
	off := clocksync.SKaMPIOffset{NExchanges: cfg.Exchanges}
	err := cfg.Job.run(func(p *mpi.Proc) {
		comm := p.World()
		lc := clock.NewLocal(p)
		n := comm.Size()
		nepochs := int(cfg.Duration/cfg.SampleEvery) + 1
		if comm.Rank() == 0 {
			t0 := lc.Time()
			series := make([]Fig2Series, n-1)
			for q := 1; q < n; q++ {
				series[q-1].Rank = q
			}
			for e := 0; e < nepochs; e++ {
				clock.WaitUntil(p, lc, t0+float64(e)*cfg.SampleEvery)
				for q := 1; q < n; q++ {
					off.MeasureOffset(comm, lc, 0, q)
					o := comm.RecvF64(q, 950)
					series[q-1].Points = append(series[q-1].Points, DriftPoint{
						T: lc.Time() - t0, Offset: o,
					})
				}
			}
			res.Series = series
			return
		}
		for e := 0; e < nepochs; e++ {
			o := off.MeasureOffset(comm, lc, 0, comm.Rank())
			comm.SendF64(0, 950, o.Offset)
		}
	})
	if err != nil {
		return nil, err
	}
	// Fit the paper's two regressions per series.
	for i := range res.Series {
		s := &res.Series[i]
		var xs, ys, xsShort, ysShort []float64
		for _, pt := range s.Points {
			xs = append(xs, pt.T)
			ys = append(ys, pt.Offset)
			if pt.T <= cfg.ShortWindow {
				xsShort = append(xsShort, pt.T)
				ysShort = append(ysShort, pt.Offset)
			}
		}
		s.FullFit = stats.FitLinear(xs, ys)
		s.ShortR2 = stats.FitLinear(xsShort, ysShort).R2
	}
	sort.Slice(res.Series, func(a, b int) bool { return res.Series[a].Rank < res.Series[b].Rank })
	return res.Series, nil
}

// Print emits per-rank drift summaries: total drift over the horizon, the
// full-horizon fit quality (Fig. 2b) and the short-window fit quality
// (Fig. 2c). The paper's claim reads off the last two columns: R² over
// ~10 s is high (>0.9) even when the full-horizon fit is poor.
func (r *Fig2Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 2 — clock drift vs rank 0 on %s, %d ranks (1/node), %.0f s\n",
		r.Config.Job.Spec.Name, r.Config.Job.NProcs, r.Config.Duration)
	fmt.Fprintf(w, "%-5s %14s %14s %12s %12s\n",
		"rank", "drift[us]", "slope[us/s]", "R2(full)", fmt.Sprintf("R2(%.0fs)", r.Config.ShortWindow))
	for _, s := range r.Series {
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		fmt.Fprintf(w, "%-5d %14.2f %14.4f %12.5f %12.5f\n",
			s.Rank, us(last.Offset-first.Offset), us(s.FullFit.Slope), s.FullFit.R2, s.ShortR2)
	}
}

// WriteCSV emits (t, offset µs, fitted µs) series for plotting Figs. 2a
// and 2b. As in the paper's plot, each series is shifted so its first
// sample reads zero (the raw offset includes the arbitrary boot-time clock
// difference); the fit column is the full-horizon linear model evaluated
// at t, on the same shifted axis — plotting it against the offsets shows
// where the linearity assumption breaks (Fig. 2b).
func (r *Fig2Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "rank,t_s,offset_us,fit_us"); err != nil {
		return err
	}
	for _, s := range r.Series {
		base := s.Points[0].Offset
		for _, pt := range s.Points {
			if _, err := fmt.Fprintf(w, "%d,%.3f,%.3f,%.3f\n",
				s.Rank, pt.T, us(pt.Offset-base), us(s.FullFit.At(pt.T)-base)); err != nil {
				return err
			}
		}
	}
	return nil
}
