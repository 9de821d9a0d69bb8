package experiments

import (
	"fmt"
	"io"

	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
	"hclocksync/internal/harness"
)

// Ablation experiments probe the design choices the paper (and DESIGN.md)
// call out. The two sync studies each return a SyncAccuracyResult comparing
// exactly two configurations so the effect is isolated; RunAblations runs
// all three studies as one suite.

// AblationsConfig sizes the three ablation studies.
type AblationsConfig struct {
	// NProcs, NFitpoints, NExchanges, and NRuns size the JK offset-algorithm
	// and recompute_intercept studies.
	NProcs, NFitpoints, NExchanges, NRuns int
	// WanderProcs and Horizon size the skew-wander drift study.
	WanderProcs int
	Horizon     float64
	// Seed, when nonzero, replaces every study's own base seed.
	Seed int64
}

// DefaultAblationsConfig is the scale behind EXPERIMENTS.md §Ablations.
func DefaultAblationsConfig() AblationsConfig {
	return AblationsConfig{NProcs: 16, NFitpoints: 60, NExchanges: 15, NRuns: 3, WanderProcs: 6, Horizon: 200}
}

// TinyAblationsConfig shrinks the studies to seconds of wall clock.
func TinyAblationsConfig() AblationsConfig {
	return AblationsConfig{NProcs: 8, NFitpoints: 30, NExchanges: 10, NRuns: 2, WanderProcs: 6, Horizon: 60}
}

func (c AblationsConfig) seed(own int64) int64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return own
}

// AblationsResult bundles the three studies.
type AblationsResult struct {
	Config                       AblationsConfig
	JKOffset, RecomputeIntercept *SyncAccuracyResult
	WanderOn, WanderOff          *Fig2Result
}

// RunAblations runs the JK offset-algorithm, recompute_intercept, and
// skew-wander studies.
func RunAblations(eng *harness.Engine, cfg AblationsConfig) (*AblationsResult, error) {
	res := &AblationsResult{Config: cfg}
	var err error
	if res.JKOffset, err = AblationJKOffsetAlg(eng, cfg); err != nil {
		return nil, err
	}
	if res.RecomputeIntercept, err = AblationRecomputeIntercept(eng, cfg); err != nil {
		return nil, err
	}
	if res.WanderOn, res.WanderOff, err = AblationWander(eng, cfg); err != nil {
		return nil, err
	}
	return res, nil
}

// Print renders each study's comparison.
func (r *AblationsResult) Print(w io.Writer) {
	printAblation(w, "JK offset algorithm (paper III-C3 side-finding)", r.JKOffset)
	printAblation(w, "recompute_intercept (Alg. 2)", r.RecomputeIntercept)
	fmt.Fprintf(w, "Ablation: skew wander (drift linearity over %.0f s)\n", r.Config.Horizon)
	fmt.Fprintf(w, "  wander ON  (realistic clocks):     mean full-horizon R² = %.6f\n", MeanFullR2(r.WanderOn))
	fmt.Fprintf(w, "  wander OFF (perfectly linear):     mean full-horizon R² = %.6f\n", MeanFullR2(r.WanderOff))
}

// AblationJKOffsetAlg reproduces the paper's §III-C3 side-finding: swapping
// JK's native Mean-RTT-Offset for SKaMPI-Offset "boosts the global clock
// precision of JK significantly".
func AblationJKOffsetAlg(eng *harness.Engine, cfg AblationsConfig) (*SyncAccuracyResult, error) {
	spec := cluster.Jupiter()
	spec.Nodes, spec.CoresPerSocket = cfg.NProcs/2, 1
	return RunSyncAccuracy(eng, SyncAccuracyConfig{
		Job:      Job{Spec: spec, NProcs: cfg.NProcs, Seed: cfg.seed(11)},
		NRuns:    cfg.NRuns,
		WaitTime: 5,
		Algorithms: []clocksync.Algorithm{
			clocksync.JK{Params: clocksync.Params{
				NFitpoints: cfg.NFitpoints, Offset: clocksync.MeanRTTOffset{NExchanges: cfg.NExchanges},
			}},
			clocksync.JK{Params: clocksync.Params{
				NFitpoints: cfg.NFitpoints, Offset: clocksync.SKaMPIOffset{NExchanges: cfg.NExchanges},
			}},
		},
		Check: clocksync.CheckConfig{Offset: clocksync.SKaMPIOffset{NExchanges: 10}},
	})
}

// AblationRecomputeIntercept isolates HCA3's recompute_intercept flag
// (Alg. 2): re-anchoring the intercept after the regression should improve
// the offset right after synchronization.
func AblationRecomputeIntercept(eng *harness.Engine, cfg AblationsConfig) (*SyncAccuracyResult, error) {
	spec := cluster.Jupiter()
	spec.Nodes, spec.CoresPerSocket = cfg.NProcs/2, 1
	off := clocksync.SKaMPIOffset{NExchanges: cfg.NExchanges}
	with := clocksync.Params{NFitpoints: cfg.NFitpoints, Offset: off, RecomputeIntercept: true}
	without := clocksync.Params{NFitpoints: cfg.NFitpoints, Offset: off}
	return RunSyncAccuracy(eng, SyncAccuracyConfig{
		Job:      Job{Spec: spec, NProcs: cfg.NProcs, Seed: cfg.seed(12)},
		NRuns:    cfg.NRuns,
		WaitTime: 5,
		Algorithms: []clocksync.Algorithm{
			clocksync.HCA3{Params: without},
			clocksync.HCA3{Params: with},
		},
		Check: clocksync.CheckConfig{Offset: clocksync.SKaMPIOffset{NExchanges: 10}},
	})
}

// AblationWander contrasts drifting-skew clocks against fixed-skew clocks
// (WanderSigma = 0) using the Fig. 2 drift experiment: the wander is the
// model ingredient that makes long-horizon drift nonlinear (paper §III-C2),
// so the full-horizon R² of a linear fit collapses the difference into one
// number — with wander off, drift is a perfect line (R² ≈ 1) however long
// you watch.
func AblationWander(eng *harness.Engine, cfg AblationsConfig) (withWander, withoutWander *Fig2Result, err error) {
	mk := func(wander bool) Fig2Config {
		c := DefaultFig2Config()
		c.Job.NProcs = cfg.WanderProcs
		c.Job.Seed = cfg.seed(c.Job.Seed)
		c.Duration = cfg.Horizon
		c.SampleEvery = cfg.Horizon / 60
		c.Exchanges = 8
		if !wander {
			c.Job.Spec.Mono.WanderSigma = 0
		}
		return c
	}
	withWander, err = RunFig2(eng, mk(true))
	if err != nil {
		return nil, nil, err
	}
	withoutWander, err = RunFig2(eng, mk(false))
	if err != nil {
		return nil, nil, err
	}
	return withWander, withoutWander, nil
}

// MeanFullR2 averages the full-horizon fit quality across a drift result's
// series — the ablation's headline number.
func MeanFullR2(r *Fig2Result) float64 {
	var sum float64
	for _, s := range r.Series {
		sum += s.FullFit.R2
	}
	return sum / float64(len(r.Series))
}

// printAblation renders a two-line comparison.
func printAblation(w io.Writer, title string, res *SyncAccuracyResult) {
	fmt.Fprintf(w, "Ablation: %s\n", title)
	for _, l := range res.labels() {
		dur, at0, atW := res.MeanFor(l)
		fmt.Fprintf(w, "  %-64s dur %8.4fs  max|off|@0 %9.3fus  @W %9.3fus\n",
			l, dur, us(at0), us(atW))
	}
}
