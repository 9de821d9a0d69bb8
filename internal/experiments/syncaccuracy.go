package experiments

import (
	"fmt"
	"io"

	"hclocksync/internal/clock"
	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
	"hclocksync/internal/harness"
	"hclocksync/internal/mpi"
	"hclocksync/internal/stats"
)

// SyncAccuracyConfig drives the Figs. 3–6 harness: several algorithms, each
// run NRuns times ("mpiruns"); every run reports the synchronization
// duration and the maximum measured clock offset right after sync and
// WaitTime seconds later.
type SyncAccuracyConfig struct {
	Job        Job
	Algorithms []clocksync.Algorithm
	NRuns      int
	WaitTime   float64
	Check      clocksync.CheckConfig
	// Cut runs each mpirun as two session phases split at the end-of-sync
	// allreduce (sync, then accuracy check), saving the whole job at the
	// cut when the engine has a checkpointer — a killed sweep resumes from
	// the cut instead of re-synchronizing. The second phase respawns every
	// rank at the cut's global virtual time, so results are deterministic
	// but not byte-identical to the back-to-back run; the flag is part of
	// the cache key.
	Cut bool
}

// SyncRun is one (algorithm, mpirun) outcome.
type SyncRun struct {
	Label    string
	Run      int
	Duration float64 // synchronization duration, seconds (incl. comm creation)
	MaxAbs0  float64 // max measured |offset| right after sync
	MaxAbsW  float64 // max measured |offset| after WaitTime
	// TrueSpread0/W are the ground-truth global-clock disagreements the
	// simulator can compute exactly (never observable on a real machine).
	TrueSpread0 float64
	TrueSpreadW float64
}

// SyncAccuracyResult bundles all runs.
type SyncAccuracyResult struct {
	Config SyncAccuracyConfig
	Runs   []SyncRun
}

// syncTask is the cache-key material of one (algorithm, replication)
// mpirun: everything besides the derived seed that determines its SyncRun.
type syncTask struct {
	Job      Job
	Alg      string
	WaitTime float64
	Check    string
	Run      int
	// Cut is omitted when false so enabling phased execution leaves the
	// cache keys of every existing unphased result untouched.
	Cut bool `json:",omitempty"` //synclint:zerokey -- false is the unphased run, which is what pre-cut cache keys already name
}

// RunSyncAccuracy executes the harness: one engine task per (algorithm,
// mpirun). All algorithms of replication r share a seed key, so they face
// the same machine instantiation — the paper's paired comparison design.
func RunSyncAccuracy(eng *harness.Engine, cfg SyncAccuracyConfig) (*SyncAccuracyResult, error) {
	if cfg.NRuns <= 0 {
		cfg.NRuns = 10
	}
	if cfg.WaitTime <= 0 {
		cfg.WaitTime = 10
	}
	check := cfg.Check
	check.WaitTime = cfg.WaitTime
	var tasks []harness.Task[SyncRun]
	for _, alg := range cfg.Algorithms {
		for run := 0; run < cfg.NRuns; run++ {
			tasks = append(tasks, harness.Task[SyncRun]{
				Name:    fmt.Sprintf("%s/run%d", alg.Name(), run),
				SeedKey: seedKeyRun(run),
				Config: syncTask{
					Job: cfg.Job, Alg: desc(alg),
					WaitTime: cfg.WaitTime, Check: desc(check), Run: run,
					Cut: cfg.Cut,
				},
				RunPhased: func(seed int64, ckpt harness.TaskCheckpoint) (SyncRun, error) {
					return syncAccuracyRun(cfg.Job, alg, run, seed, cfg.WaitTime, check, cfg.Cut, ckpt)
				},
			})
		}
	}
	runs, err := harness.Run(eng, "syncaccuracy", cfg.Job.Seed, tasks)
	if err != nil {
		return nil, err
	}
	return &SyncAccuracyResult{Config: cfg, Runs: runs}, nil
}

// syncRank is what one rank carries from the sync phase to the accuracy
// check: its synchronized clock and its own view of the sync's start and
// (allreduced) end.
type syncRank struct {
	Clock   clocksync.SyncState
	T0, End float64
}

// syncAccuracyRun executes one (algorithm, replication) mpirun with the
// given derived seed: the sync phase, then the accuracy check with the
// ground truth at the common instants end and end+wait.
func syncAccuracyRun(base Job, alg clocksync.Algorithm, run int, seed int64,
	wait float64, check clocksync.CheckConfig, cut bool, ckpt harness.TaskCheckpoint) (SyncRun, error) {
	job := base
	job.Seed = seed
	row := SyncRun{Label: alg.Name(), Run: run}
	ranks := make([]syncRank, job.NProcs)
	readings0 := make([]float64, job.NProcs)
	readingsW := make([]float64, job.NProcs)
	err := runPhases(job.config(), cut, ckpt, &ranks,
		func(p *mpi.Proc) {
			comm := p.World()
			comm.Barrier()
			t0 := p.TrueNow()
			g := alg.Sync(comm, clock.NewLocal(p))
			end := comm.AllreduceF64(p.TrueNow(), mpi.OpMax)
			ranks[comm.Rank()] = syncRank{Clock: clocksync.CaptureClock(g), T0: t0, End: end}
		},
		func(p *mpi.Proc) {
			comm := p.World()
			me := ranks[comm.Rank()]
			g := me.Clock.Rebuild(clock.NewLocal(p))
			samples := clocksync.CheckAccuracy(comm, g, check)
			_, m := clock.Collapse(g)
			hw := p.HWClock()
			l0, lw := hw.ReadAt(me.End), hw.ReadAt(me.End+wait)
			readings0[comm.Rank()] = l0 - m.Predict(l0)
			readingsW[comm.Rank()] = lw - m.Predict(lw)
			if comm.Rank() == 0 {
				row.Duration = me.End - me.T0
				row.MaxAbs0, row.MaxAbsW = clocksync.MaxAbsOffsets(samples)
			}
		})
	if err != nil {
		return SyncRun{}, fmt.Errorf("%s run %d: %w", alg.Name(), run, err)
	}
	row.TrueSpread0 = spread(readings0)
	row.TrueSpreadW = spread(readingsW)
	return row, nil
}

func spread(xs []float64) float64 { return stats.Max(xs) - stats.Min(xs) }

// Print emits one row per run plus per-algorithm means — the data behind
// the paper's scatter plots (duration on x, max offset on y) with the
// horizontal mean bars.
func (r *SyncAccuracyResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Figs. 3-6 style sync accuracy — %s, %d procs, %d runs, wait %.0f s\n",
		r.Config.Job.Spec.Name, r.Config.Job.NProcs, r.Config.NRuns, r.Config.WaitTime)
	fmt.Fprintf(w, "%-64s %4s %10s %12s %12s %12s %12s\n",
		"algorithm", "run", "dur[s]", "max|off|@0", "max|off|@W", "true@0", "true@W")
	for _, row := range r.Runs {
		fmt.Fprintf(w, "%-64s %4d %10.4f %9.3fus %9.3fus %9.3fus %9.3fus\n",
			row.Label, row.Run, row.Duration,
			us(row.MaxAbs0), us(row.MaxAbsW), us(row.TrueSpread0), us(row.TrueSpreadW))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-64s %10s %12s %12s\n", "algorithm (means)", "dur[s]", "max|off|@0", "max|off|@W")
	for _, label := range r.labels() {
		var durs, a0, aw []float64
		for _, row := range r.Runs {
			if row.Label == label {
				durs = append(durs, row.Duration)
				a0 = append(a0, row.MaxAbs0)
				aw = append(aw, row.MaxAbsW)
			}
		}
		fmt.Fprintf(w, "%-64s %10.4f %9.3fus %9.3fus\n",
			label, stats.Mean(durs), us(stats.Mean(a0)), us(stats.Mean(aw)))
	}
}

func (r *SyncAccuracyResult) labels() []string {
	var out []string
	seen := map[string]bool{}
	for _, row := range r.Runs {
		if !seen[row.Label] {
			seen[row.Label] = true
			out = append(out, row.Label)
		}
	}
	return out
}

// MeanFor returns the mean duration and mean max-offsets for one label.
func (r *SyncAccuracyResult) MeanFor(label string) (dur, at0, atW float64) {
	var durs, a0, aw []float64
	for _, row := range r.Runs {
		if row.Label == label {
			durs = append(durs, row.Duration)
			a0 = append(a0, row.MaxAbs0)
			aw = append(aw, row.MaxAbsW)
		}
	}
	return stats.Mean(durs), stats.Mean(a0), stats.Mean(aw)
}

// --- Default configurations for the paper's figures ---

// DefaultFig3Config compares HCA, HCA2, HCA3, and JK on Jupiter
// (paper: 32×16 = 512 procs, 1000 fit points; scaled to 16×4 = 64 procs and
// 150 fit points so a laptop regenerates it in minutes — see DESIGN.md §1).
func DefaultFig3Config() SyncAccuracyConfig {
	hcaParams := clocksync.Params{
		NFitpoints:         150,
		Offset:             clocksync.SKaMPIOffset{NExchanges: 20},
		RecomputeIntercept: true,
	}
	plain := hcaParams
	plain.RecomputeIntercept = false
	jkParams := clocksync.Params{
		NFitpoints: 150,
		Offset:     clocksync.SKaMPIOffset{NExchanges: 20},
	}
	spec := cluster.Jupiter()
	spec.CoresPerSocket = 2 // 16 nodes x 4 cores = 64 ranks block-mapped
	spec.Nodes = 16
	return SyncAccuracyConfig{
		Job:      Job{Spec: spec, NProcs: 64, Seed: 3},
		NRuns:    10,
		WaitTime: 10,
		Algorithms: []clocksync.Algorithm{
			clocksync.HCA{Params: plain},
			clocksync.HCA2{Params: hcaParams},
			clocksync.HCA3{Params: hcaParams},
			clocksync.JK{Params: jkParams},
		},
		Check: clocksync.CheckConfig{Offset: clocksync.SKaMPIOffset{NExchanges: 10}},
	}
}

// fig456Algorithms builds the four configurations the paper compares in
// Figs. 4–6: flat HCA3 with 1000 and 500 fit points (scaled: nfit and
// nfit/2) vs H2HCA with the same two settings.
func fig456Algorithms(nfit, nexch int) []clocksync.Algorithm {
	big := clocksync.Params{
		NFitpoints:         nfit,
		Offset:             clocksync.SKaMPIOffset{NExchanges: nexch},
		RecomputeIntercept: true,
	}
	small := big
	small.NFitpoints = nfit / 2
	bigH := clocksync.Params{NFitpoints: nfit, Offset: clocksync.SKaMPIOffset{NExchanges: nexch}}
	smallH := bigH
	smallH.NFitpoints = nfit / 2
	return []clocksync.Algorithm{
		clocksync.HCA3{Params: big},
		clocksync.HCA3{Params: small},
		clocksync.NewH2HCA(clocksync.HCA3{Params: bigH}),
		clocksync.NewH2HCA(clocksync.HCA3{Params: smallH}),
	}
}

// DefaultFig4Config: HCA3 vs H2HCA on Jupiter (paper: 32×16; scaled 16×4).
func DefaultFig4Config() SyncAccuracyConfig {
	spec := cluster.Jupiter()
	spec.Nodes, spec.CoresPerSocket = 16, 2
	return SyncAccuracyConfig{
		Job:        Job{Spec: spec, NProcs: 64, Seed: 4},
		NRuns:      10,
		WaitTime:   10,
		Algorithms: fig456Algorithms(150, 20),
		Check:      clocksync.CheckConfig{Offset: clocksync.SKaMPIOffset{NExchanges: 10}},
	}
}

// DefaultFig5Config: the same comparison on Hydra (paper: 36×32; scaled
// 18×4 = 72 ranks). OmniPath's lower latency lets the same wall-clock
// budget buy more ping-pongs, as the paper notes.
func DefaultFig5Config() SyncAccuracyConfig {
	spec := cluster.Hydra()
	spec.Nodes, spec.CoresPerSocket = 18, 2
	return SyncAccuracyConfig{
		Job:        Job{Spec: spec, NProcs: 72, Seed: 5},
		NRuns:      10,
		WaitTime:   10,
		Algorithms: fig456Algorithms(150, 20),
		Check:      clocksync.CheckConfig{Offset: clocksync.SKaMPIOffset{NExchanges: 10}},
	}
}

// DefaultFig6Config: Titan at scale (paper: 1024×16 = 16k procs, 5 runs,
// 10% accuracy sample; scaled to 64×4 = 256 procs by default — pass
// -procs/-nodes on the CLI for larger runs).
func DefaultFig6Config() SyncAccuracyConfig {
	spec := cluster.Titan()
	spec.Nodes, spec.CoresPerSocket = 64, 2
	return SyncAccuracyConfig{
		Job:        Job{Spec: spec, NProcs: 256, Seed: 6},
		NRuns:      5,
		WaitTime:   10,
		Algorithms: fig456Algorithms(100, 15),
		Check: clocksync.CheckConfig{
			Offset:       clocksync.SKaMPIOffset{NExchanges: 10},
			SampleStride: 10, // the paper's 10% sample
		},
	}
}
