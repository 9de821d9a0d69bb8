package experiments

import (
	"fmt"
	"io"

	"hclocksync/internal/bench"
	"hclocksync/internal/cluster"
	"hclocksync/internal/harness"
	"hclocksync/internal/mpi"
)

// Fig7Config drives the benchmark-suite × barrier-algorithm comparison
// (paper Fig. 7): the measured latency of a small MPI_Allreduce depends
// both on the benchmark's measurement loop and on which MPI_Barrier
// implementation it synchronizes with.
type Fig7Config struct {
	Job      Job
	Suites   []bench.Suite
	Barriers []mpi.BarrierAlg
	MSizes   []int
	NRep     int
	// Cut runs each (suite, barrier) cell as one session phase per message
	// size, saving the whole job between sizes when the engine has a
	// checkpointer — a killed sweep resumes from the last finished size
	// instead of re-measuring the cell from scratch. Each phase respawns
	// every rank at the cut's global virtual time, so results are
	// deterministic but not byte-identical to the back-to-back run; the
	// flag is part of the cache key.
	Cut bool
}

// DefaultFig7Config mirrors the paper: IMB, OSU, and ReproMPI measuring
// MPI_Allreduce at 4/8/16 B under the bruck, recursive-doubling, and tree
// barriers on Jupiter (scaled to 16 nodes × 4 ranks).
func DefaultFig7Config() Fig7Config {
	spec := cluster.Jupiter()
	spec.Nodes, spec.CoresPerSocket = 16, 2
	return Fig7Config{
		Job:      Job{Spec: spec, NProcs: 64, Seed: 7},
		Suites:   []bench.Suite{bench.SuiteIMB, bench.SuiteOSU, bench.SuiteReproMPIBarrier},
		Barriers: []mpi.BarrierAlg{mpi.BarrierDissemination, mpi.BarrierRecursiveDoubling, mpi.BarrierTree},
		MSizes:   []int{4, 8, 16},
		NRep:     50,
	}
}

// Fig7Row is one measured cell of the figure.
type Fig7Row struct {
	Suite   bench.Suite
	Barrier mpi.BarrierAlg
	MSize   int
	Latency float64 // seconds, as the suite would report it
}

// Fig7Result bundles all cells.
type Fig7Result struct {
	Config Fig7Config
	Rows   []Fig7Row
}

// fig7Task is the cache-key material of one (suite, barrier) cell group.
type fig7Task struct {
	Job     Job
	Suite   string
	Barrier string
	MSizes  []int
	NRep    int
	// Cut is omitted when false so enabling phased execution leaves the
	// cache keys of every existing unphased result untouched.
	Cut bool `json:",omitempty"` //synclint:zerokey -- false is the unphased run, which is what pre-cut cache keys already name
}

// RunFig7 executes one mpirun per (suite, barrier) pair, measuring every
// message size inside it (as the real tools do). Each pair is one engine
// task.
func RunFig7(eng *harness.Engine, cfg Fig7Config) (*Fig7Result, error) {
	var tasks []harness.Task[[]Fig7Row]
	for _, suite := range cfg.Suites {
		for _, barrier := range cfg.Barriers {
			name := fmt.Sprintf("%s/%s", suite, barrier)
			tasks = append(tasks, harness.Task[[]Fig7Row]{
				Name:    name,
				SeedKey: name,
				Config: fig7Task{
					Job: cfg.Job, Suite: string(suite), Barrier: barrier.String(),
					MSizes: cfg.MSizes, NRep: cfg.NRep, Cut: cfg.Cut,
				},
				RunPhased: func(seed int64, ckpt harness.TaskCheckpoint) ([]Fig7Row, error) {
					return fig7Cell(cfg, suite, barrier, seed, ckpt)
				},
			})
		}
	}
	cells, err := harness.Run(eng, "fig7", cfg.Job.Seed, tasks)
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{Config: cfg}
	for _, rows := range cells {
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// fig7Cell measures one (suite, barrier) pair across all message sizes,
// one phase per size; rank 0 records each size's latency.
func fig7Cell(cfg Fig7Config, suite bench.Suite, barrier mpi.BarrierAlg,
	seed int64, ckpt harness.TaskCheckpoint) ([]Fig7Row, error) {
	job := cfg.Job
	job.Seed = seed
	lats := make([]float64, len(cfg.MSizes))
	phases := make([]func(*mpi.Proc), len(cfg.MSizes))
	for k, msize := range cfg.MSizes {
		phases[k] = func(p *mpi.Proc) {
			op := bench.AllreduceOp(msize, mpi.AllreduceRecursiveDoubling)
			lat := bench.RunSuite(p.World(), suite, op, bench.SuiteConfig{
				NRep:    cfg.NRep,
				Barrier: barrier,
			})
			if p.Rank() == 0 {
				lats[k] = lat
			}
		}
	}
	if err := runPhases(job.config(), cfg.Cut, ckpt, &lats, phases...); err != nil {
		return nil, fmt.Errorf("%s/%s: %w", suite, barrier, err)
	}
	rows := make([]Fig7Row, 0, len(cfg.MSizes))
	for i, msize := range cfg.MSizes {
		rows = append(rows, Fig7Row{
			Suite: suite, Barrier: barrier, MSize: msize, Latency: lats[i],
		})
	}
	return rows, nil
}

// Print emits the figure's panels: per message size, latency by
// (benchmark, barrier algorithm).
func (r *Fig7Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 7 — MPI_Allreduce latency by benchmark and MPI_Barrier algorithm (%s, %d procs)\n",
		r.Config.Job.Spec.Name, r.Config.Job.NProcs)
	for _, msize := range r.Config.MSizes {
		fmt.Fprintf(w, "\nmsize = %d Bytes\n", msize)
		fmt.Fprintf(w, "%-20s", "benchmark")
		for _, b := range r.Config.Barriers {
			fmt.Fprintf(w, " %18s", b)
		}
		fmt.Fprintln(w)
		for _, suite := range r.Config.Suites {
			fmt.Fprintf(w, "%-20s", suite)
			for _, b := range r.Config.Barriers {
				for _, row := range r.Rows {
					if row.Suite == suite && row.Barrier == b && row.MSize == msize {
						fmt.Fprintf(w, " %15.3fus", us(row.Latency))
					}
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// LatencyFor returns the measured latency of one cell (NaN if absent).
func (r *Fig7Result) LatencyFor(suite bench.Suite, barrier mpi.BarrierAlg, msize int) float64 {
	for _, row := range r.Rows {
		if row.Suite == suite && row.Barrier == barrier && row.MSize == msize {
			return row.Latency
		}
	}
	return nan()
}
