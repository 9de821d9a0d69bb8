package experiments

import (
	"fmt"
	"io"
	"math"

	"hclocksync/internal/clock"
	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
	"hclocksync/internal/faults"
	"hclocksync/internal/harness"
	"hclocksync/internal/mpi"
	"hclocksync/internal/stats"
)

// FaultsConfig drives the faults suite: fault-tolerant HCA3 swept over a
// grid of message-drop rates × crashed-rank counts, NRuns replications per
// cell. Every cell's fault schedule is derived from the task's seed
// (faults.PlanConfig.Derive), so a run replays exactly from its manifest
// seed and results are byte-identical at any worker-pool width.
type FaultsConfig struct {
	Job         Job
	DropRates   []float64
	CrashCounts []int
	NRuns       int
	// NFitpoints per (ref, client) pair of the FT sync.
	NFitpoints int
	FT         clocksync.FTOpts
	// Schedule provides the remaining fault-intensity knobs (crash window,
	// degraded episodes); DropProb and NCrashes are overridden per cell.
	Schedule faults.PlanConfig
	// Horizon is the true time at which every survivor's global clock is
	// evaluated for the ground-truth error (must exceed the sync end;
	// checked at run time). No post-sync communication is needed — the
	// ground truth is simulator-only — so the measurement itself cannot
	// deadlock at any drop rate.
	Horizon float64
}

// FaultsRun is one (drop rate, crash count, replication) outcome.
type FaultsRun struct {
	DropProb float64
	Crashes  int
	Run      int

	Survivors int // ranks that completed sync
	Degraded  int // survivors whose model fell below MinSamples
	LostFrac  float64
	Duration  float64 // last survivor's sync end, seconds

	// TrueSpread is the ground-truth disagreement (max−min) of the
	// survivors' global clocks at Horizon; MaxAbsErr the largest survivor
	// deviation from the survivor mean.
	TrueSpread float64
	MaxAbsErr  float64

	// PerRank is every rank's sync-quality report, in world-rank order.
	PerRank []clocksync.RankSync
}

// FaultsResult bundles the sweep.
type FaultsResult struct {
	Config FaultsConfig
	Runs   []FaultsRun
}

// faultsTask is the cache-key material of one cell replication.
type faultsTask struct {
	Job      Job
	Drop     float64
	Crashes  int
	NFit     int
	FT       clocksync.FTOpts
	Schedule faults.PlanConfig
	Horizon  float64
	Run      int
}

// RunFaults executes the sweep through the engine, one task per
// (drop rate, crash count, replication).
func RunFaults(eng *harness.Engine, cfg FaultsConfig) (*FaultsResult, error) {
	if cfg.NRuns <= 0 {
		cfg.NRuns = 3
	}
	if cfg.NFitpoints <= 0 {
		cfg.NFitpoints = 50
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 2
	}
	if len(cfg.DropRates) == 0 {
		cfg.DropRates = []float64{0}
	}
	if len(cfg.CrashCounts) == 0 {
		cfg.CrashCounts = []int{0}
	}
	var tasks []harness.Task[FaultsRun]
	for _, drop := range cfg.DropRates {
		for _, crashes := range cfg.CrashCounts {
			for run := 0; run < cfg.NRuns; run++ {
				tasks = append(tasks, harness.Task[FaultsRun]{
					Name:    fmt.Sprintf("drop%g/crash%d/run%d", drop, crashes, run),
					SeedKey: seedKeyRun(run),
					Config: faultsTask{
						Job: cfg.Job, Drop: drop, Crashes: crashes,
						NFit: cfg.NFitpoints, FT: cfg.FT,
						Schedule: cfg.Schedule, Horizon: cfg.Horizon, Run: run,
					},
					RunPhased: func(seed int64, ckpt harness.TaskCheckpoint) (FaultsRun, error) {
						return faultsRun(cfg, drop, crashes, run, seed, ckpt)
					},
				})
			}
		}
	}
	runs, err := harness.Run(eng, "faults", cfg.Job.Seed, tasks)
	if err != nil {
		return nil, err
	}
	return &FaultsResult{Config: cfg, Runs: runs}, nil
}

// faultsRank is what one rank carries from the fault-tolerant sync to the
// ground-truth sampling: its sync report, its synchronized clock, and the
// true time its sync ended.
type faultsRank struct {
	Rep   clocksync.RankSync
	Clock clocksync.SyncState
	End   float64
}

// faultsRun executes one cell replication with the given derived seed. The
// fault plan is a pure function of (schedule, nprocs, seed), which is what
// makes a run replayable from its manifest seed alone. It always runs as
// two session phases, split at the end of the sync: the second phase does
// no communication, so the cut moves no result, and with a checkpointer a
// killed sweep resumes from it instead of re-synchronizing.
func faultsRun(cfg FaultsConfig, drop float64, crashes, run int, seed int64, ckpt harness.TaskCheckpoint) (FaultsRun, error) {
	job := cfg.Job
	job.Seed = seed
	sched := cfg.Schedule
	sched.DropProb = drop
	sched.NCrashes = crashes
	mcfg := job.config()
	mcfg.Faults = faults.NewInjector(sched.Derive(job.NProcs, seed))
	alg := clocksync.HCA3FT{NFitpoints: cfg.NFitpoints, Opts: cfg.FT}
	fail := func(err error) (FaultsRun, error) {
		return FaultsRun{}, fmt.Errorf("drop %g crashes %d run %d: %w", drop, crashes, run, err)
	}

	ranks := make([]faultsRank, job.NProcs)
	readings := make([]float64, job.NProcs)
	sampled := make([]bool, job.NProcs)
	err := runPhases(mcfg, true, ckpt, &ranks,
		func(p *mpi.Proc) {
			g, rep := alg.SyncFT(p.World(), clock.NewLocal(p))
			ranks[p.Rank()] = faultsRank{Rep: rep, Clock: clocksync.CaptureClock(g), End: p.TrueNow()}
		},
		// Evaluate every survivor's global clock at the horizon. Ranks
		// whose crash struck before the cut are not respawned; the Alive
		// guard also skips those that crashed mid-sync.
		func(p *mpi.Proc) {
			me := ranks[p.Rank()]
			if !me.Rep.Alive {
				return
			}
			_, m := clock.Collapse(me.Clock.Rebuild(clock.NewLocal(p)))
			l := p.HWClock().ReadAt(cfg.Horizon)
			readings[p.Rank()] = l - m.Predict(l)
			sampled[p.Rank()] = true
		})
	if err != nil {
		return fail(err)
	}

	row := FaultsRun{
		DropProb: drop, Crashes: crashes, Run: run,
		PerRank: make([]clocksync.RankSync, job.NProcs),
	}
	var alive []float64
	var lastEnd float64
	for r, rk := range ranks {
		row.PerRank[r] = rk.Rep
		if rk.Rep.Alive {
			lastEnd = math.Max(lastEnd, rk.End)
		}
		if sampled[r] {
			alive = append(alive, readings[r])
		}
	}
	if lastEnd > cfg.Horizon {
		return fail(fmt.Errorf("sync ended at %.3f s, past the %.3f s horizon", lastEnd, cfg.Horizon))
	}
	row.Survivors = len(alive)
	row.Duration = lastEnd
	var kept, lost int
	for _, rep := range row.PerRank {
		if rep.Alive && rep.Degraded {
			row.Degraded++
		}
		kept += rep.Samples
		lost += rep.Lost
	}
	if kept+lost > 0 {
		row.LostFrac = float64(lost) / float64(kept+lost)
	}
	if len(alive) > 0 {
		row.TrueSpread = spread(alive)
		mean := stats.Mean(alive)
		for _, v := range alive {
			row.MaxAbsErr = math.Max(row.MaxAbsErr, math.Abs(v-mean))
		}
	}
	return row, nil
}

// Print emits one row per run plus per-cell means — the sync-error
// degradation curves under increasing fault intensity.
func (r *FaultsResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Faults suite — FT-HCA3 under drop rate x crash count, %s, %d procs, %d runs\n",
		r.Config.Job.Spec.Name, r.Config.Job.NProcs, r.Config.NRuns)
	fmt.Fprintf(w, "%-8s %-7s %4s %5s %4s %8s %10s %12s %12s\n",
		"drop", "crashes", "run", "surv", "degr", "lost", "dur[s]", "spread", "maxerr")
	for _, row := range r.Runs {
		fmt.Fprintf(w, "%-8g %-7d %4d %5d %4d %7.2f%% %10.4f %9.3fus %9.3fus\n",
			row.DropProb, row.Crashes, row.Run, row.Survivors, row.Degraded,
			100*row.LostFrac, row.Duration, us(row.TrueSpread), us(row.MaxAbsErr))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s %-7s %5s %12s %12s\n", "drop", "crashes", "surv", "spread", "maxerr")
	for _, drop := range r.Config.DropRates {
		for _, crashes := range r.Config.CrashCounts {
			var surv, sp, me []float64
			for _, row := range r.Runs {
				if row.DropProb == drop && row.Crashes == crashes {
					surv = append(surv, float64(row.Survivors))
					sp = append(sp, row.TrueSpread)
					me = append(me, row.MaxAbsErr)
				}
			}
			if len(sp) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-8g %-7d %5.1f %9.3fus %9.3fus\n",
				drop, crashes, stats.Mean(surv), us(stats.Mean(sp)), us(stats.Mean(me)))
		}
	}
}

// DefaultFaultsConfig: 32 ranks on Jupiter, drop rates up to 10%, up to two
// crashed ranks (the crash window covers the start of the sync, so doomed
// ranks are excluded from the survivor tree — including rank 0, which
// exercises reference re-election).
func DefaultFaultsConfig() FaultsConfig {
	spec := cluster.Jupiter()
	spec.Nodes, spec.CoresPerSocket = 8, 2
	return FaultsConfig{
		Job:         Job{Spec: spec, NProcs: 32, Seed: 11},
		DropRates:   []float64{0, 0.01, 0.05, 0.1},
		CrashCounts: []int{0, 1, 2},
		NRuns:       3,
		NFitpoints:  60,
		// The inter-exchange gap widens each pair's fit span from a few
		// hundred µs to ~30 ms, which is what keeps the fitted drift slopes
		// stable enough to evaluate at the horizon.
		FT:       clocksync.FTOpts{Gap: 5e-4},
		Schedule: faults.PlanConfig{CrashFrom: 0, CrashTo: 0.05},
		Horizon:  0.5,
	}
}

// TinyFaultsConfig: 16 ranks, a 2×2 grid, 2 runs.
func TinyFaultsConfig() FaultsConfig {
	spec := cluster.Jupiter()
	spec.Nodes, spec.CoresPerSocket = 4, 2
	return FaultsConfig{
		Job:         Job{Spec: spec, NProcs: 16, Seed: 11},
		DropRates:   []float64{0, 0.05},
		CrashCounts: []int{0, 1},
		NRuns:       2,
		NFitpoints:  30,
		FT:          clocksync.FTOpts{Gap: 5e-4},
		Schedule:    faults.PlanConfig{CrashFrom: 0, CrashTo: 0.05},
		Horizon:     0.5,
	}
}
