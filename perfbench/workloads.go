package main

import (
	"bytes"
	"fmt"
	"sort"

	"hclocksync/internal/experiments"
	"hclocksync/internal/harness"
)

// workload is one fixed sweep through the public experiment entry points,
// the same calls cmd/runexp makes for its suites.
type workload struct {
	name string
	// windowed marks sweeps of step procs, which sim.RunParallel can
	// dispatch on several kernel workers under lookahead windows. The
	// traced run times them that way too (sim.window_wall_s).
	windowed bool
	// run executes the sweep once on eng and returns its printed result.
	// seed 0 keeps the experiments' own base seeds (the ones cmd/runexp and
	// the golden hashes use); any other seed replaces every base seed.
	// smoke swaps in the experiments' test-sized configs, a sweep of a
	// second or two for the benchmark's own tests.
	run func(eng *harness.Engine, seed int64, workers int, smoke bool) (sweep, error)
}

// sweep is what one pass of a workload produces.
type sweep struct {
	out    []byte // the printed result: the bytes the correctness gate hashes
	events uint64 // simulated events, where the experiment reports them
}

// kernelWorkers is the kernel dispatch workers per simulation in every
// measured pass, cmd/runexp's default: a workload runs jobs = threads
// simulations at once, one thread each. Lockstep lookahead windows across
// workers (-workers > 1) stall whenever the host steals any one of its
// CPUs, which on a shared host spread a sweep's wall time by a third from
// run to run; only the traced run's windowed pass uses them.
const kernelWorkers = 1

var workloads = []workload{
	{
		// Fig. 4: HCA3 vs H2HCA at 150 and 75 fit points on 64 Jupiter
		// ranks. Host time goes to SKaMPI ping-pong offset measurement,
		// MPI point-to-point and the fiber baton.
		name: "sync-hier",
		run: func(eng *harness.Engine, seed int64, workers int, smoke bool) (sweep, error) {
			cfg := experiments.DefaultFig4Config()
			if smoke {
				cfg = experiments.TinyFig4Config()
			}
			cfg.Job.Workers = workers
			if seed != 0 {
				cfg.Job.Seed = seed
			}
			res, err := experiments.RunSyncAccuracy(eng, cfg)
			if err != nil {
				return sweep{}, err
			}
			var b bytes.Buffer
			res.Print(&b)
			return sweep{out: b.Bytes()}, nil
		},
	},
	{
		// Fig. 7 (IMB/OSU/ReproMPI x 3 barriers x 4-16 B Allreduce) then
		// Fig. 9 (OSU vs Round-Time): collectives and the bench
		// measurement loops, with one H2HCA sync per Fig. 9 run.
		name: "coll-bench",
		run: func(eng *harness.Engine, seed int64, workers int, smoke bool) (sweep, error) {
			f7, f9 := experiments.DefaultFig7Config(), experiments.DefaultFig9Config()
			if smoke {
				f7, f9 = experiments.TinyFig7Config(), experiments.TinyFig9Config()
			}
			f7.Job.Workers = workers
			f9.Job.Workers = workers
			if seed != 0 {
				f7.Job.Seed, f9.Job.Seed = seed, seed
			}
			r7, err := experiments.RunFig7(eng, f7)
			if err != nil {
				return sweep{}, err
			}
			r9, err := experiments.RunFig9(eng, f9)
			if err != nil {
				return sweep{}, err
			}
			var b bytes.Buffer
			r7.Print(&b)
			r9.Print(&b)
			return sweep{out: b.Bytes()}, nil
		},
	},
	{
		// The synthetic step-proc barrier and hierarchical-sync sweeps at
		// 100k and 250k ranks: the sim kernel alone, with per-simulation
		// state and heaps far larger than a core's private caches.
		name:     "step-scale",
		windowed: true,
		run: func(eng *harness.Engine, seed int64, workers int, smoke bool) (sweep, error) {
			cfg := experiments.DefaultScaleConfig()
			cfg.RunFig6 = false
			cfg.BarrierRanks, cfg.HierRanks = stepScaleRanks, stepScaleRanks
			if smoke {
				cfg.BarrierRanks, cfg.HierRanks = []int{256, 4096}, []int{256, 4096}
			}
			cfg.Workers = workers
			if seed != 0 {
				cfg.Seed = seed
			}
			res, err := experiments.RunScale(eng, cfg)
			if err != nil {
				return sweep{}, err
			}
			var b bytes.Buffer
			res.Print(&b)
			var ev uint64
			for _, p := range res.Points {
				ev += p.Events
			}
			return sweep{out: b.Bytes(), events: ev}, nil
		},
	},
}

// stepScaleRanks stops the default 100k/250k/1M sweep points at 250k, so
// a pass takes seconds and a measured run takes the median of many. A
// 250k-rank simulation still peaks near 150 MB.
var stepScaleRanks = []int{100_000, 250_000}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}
