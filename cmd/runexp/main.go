// Command runexp runs experiment suites through the parallel experiment
// engine (internal/harness), with deterministic seeding, a persistent result
// cache, and a run manifest. It is the one front end for the paper's tables
// and figures; results_default.txt is the stdout of
//
//	runexp -suite table1,fig2,fig3,fig4,fig5,fig6,fig7,fig8,fig9,fig10,ablations,driftaware,windowloss,tracecorr,tuning
//
// Usage:
//
//	runexp -suite NAME[,NAME...]|all [-scale default|tiny|smoke] [-jobs N]
//	       [-workers N] [-fabric N] [-cache DIR] [-outdir DIR] [-seed S]
//	       [-quiet] [-checkpoint FILE] [-checkpoint-every N] [-restore FILE]
//	       [-cpuprofile FILE] [-memprofile FILE]
//	runexp -list
//	runexp -worker
//
// Each suite's simulations are fanned out across -jobs workers; for a fixed
// seed the results are identical at any -jobs setting. Orthogonally,
// -workers N dispatches *each* simulation on N kernel workers under
// conservative lookahead windows (sim.RunParallel, DESIGN.md §13) — today
// that engages the scale suite's sharded step-proc sweeps, while
// fiber-backed suites fall back to serial dispatch — and results stay
// byte-identical at any value, which the golden-hash suite pins. Finished simulations
// are stored content-addressed in -cache (default .expcache), so re-running
// an interrupted or repeated invocation re-simulates only what is missing —
// that is the resume story: kill runexp at any point and run the same
// command line again, and completed work is served from disk.
//
// With -checkpoint, the run additionally maintains a single-file sweep
// ledger (internal/checkpoint's sealed binary format, atomic
// write-then-rename): every finished task's result and, for the
// sync-accuracy, fig7, and faults suites — which then run phased (at the
// end-of-sync barrier, between message sizes, and at the end of the FT
// sync, respectively) — the latest mid-run cut snapshot of each in-flight
// simulation. After a SIGKILL, rerunning the
// same command line with -restore FILE serves finished tasks from the
// ledger and resumes in-flight simulations from their last quiescent cut,
// producing output byte-identical to an uninterrupted checkpointed run
// (see DESIGN.md §11). Note phased execution is a different — equally
// deterministic — schedule than unphased, so checkpointed sync-accuracy
// outputs are not byte-comparable to non-checkpointed ones.
//
// With -fabric N, simulations run in N supervised child *processes*
// instead of in-process goroutines: runexp re-executes itself with -worker
// N times and farms each task out over internal/fabric's leased, heartbeat-
// monitored job protocol. The sweep survives arbitrary worker failure —
// crashed or hung workers are detected, their jobs retried with
// deterministic backoff on respawned processes, and phased tasks resume
// from the dead worker's last checkpoint cut, which migrates to the
// adopting worker. Output stays byte-identical to the same run with
// -jobs N (scripts/fabric_chaos.sh proves this under a SIGKILL schedule);
// the pool's robustness counters land in manifest.json under "fabric".
// -worker is the internal worker mode: it serves fabric jobs on
// stdin/stdout and is not meant to be invoked by hand.
//
// With -cpuprofile / -memprofile, pprof profiles of the whole run are
// written on exit (the memory profile after a final GC), so profiling the
// simulation substrate under any workload is one flag away:
//
//	runexp -suite fig7 -scale tiny -cache "" -cpuprofile cpu.prof
//	go tool pprof -top cpu.prof
//
// With -outdir, every suite's output is written to DIR/<suite>.txt, the
// plottable series of fig2 and fig10 to DIR/fig2_series.csv and
// DIR/fig10_spans.csv, and the run's manifest — every task's config,
// derived seed, wall time, and whether it was served from cache, plus each
// suite's wall time, sims/s, and cache hits — to DIR/manifest.json. A
// summary line with the cache-hit rate is always printed at the end.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"hclocksync/internal/experiments"
	"hclocksync/internal/fabric"
	"hclocksync/internal/harness"
)

// printer is the common surface of every experiment result.
type printer interface{ Print(w io.Writer) }

// csvWriter is implemented by results with a plottable series.
type csvWriter interface{ WriteCSV(w io.Writer) error }

// printFunc adapts a plain rendering function to printer.
type printFunc func(w io.Writer)

func (f printFunc) Print(w io.Writer) { f(w) }

// suiteDef is one runnable entry of the registry. tiny selects the
// test-sized configs; smoke (implies tiny elsewhere, see -scale) is only
// distinguished by the scale suite, which keeps fig6 at the full 16384
// ranks but trims it to a single run for the CI memory gate. csv, when
// set, names the -outdir file the result's WriteCSV series goes to.
type suiteDef struct {
	name  string
	title string
	run   func(eng *harness.Engine, tiny, smoke bool, seed int64) (printer, error)
	csv   string
}

// pick returns the tiny or the default config of a suite.
func pick[C any](tiny bool, tinyFn, defFn func() C) C {
	if tiny {
		return tinyFn()
	}
	return defFn()
}

// seeded applies the -seed override to a Job-carrying config.
func seeded(seed int64, base *int64) {
	if seed != 0 {
		*base = seed
	}
}

// registry lists the runnable suites. With cut set (checkpointing active)
// the sync-accuracy, fig7, and faults suites run phased, so a killed sweep resumes
// from each mpirun's last quiescent cut; phased results are deterministic
// but keyed and hashed separately from unphased ones. workers is the kernel dispatch
// parallelism (-workers): it reaches the scale suite's sharded step-proc
// sweeps, where N > 1 engages sim.RunParallel, and the sync-accuracy jobs,
// where today's fiber ranks make it a byte-identical no-op. It never enters
// a cache key — for a fixed seed the output is identical at any value.
func registry(cut bool, workers int) []suiteDef {
	syncSuite := func(name, title string, tinyFn, defFn func() experiments.SyncAccuracyConfig) suiteDef {
		return suiteDef{name: name, title: title, run: func(eng *harness.Engine, tiny, smoke bool, seed int64) (printer, error) {
			cfg := pick(tiny, tinyFn, defFn)
			cfg.Cut = cut
			cfg.Job.Workers = workers
			seeded(seed, &cfg.Job.Seed)
			return experiments.RunSyncAccuracy(eng, cfg)
		}}
	}
	return []suiteDef{
		{name: "table1", title: "Table I — machines", run: func(eng *harness.Engine, tiny, smoke bool, seed int64) (printer, error) {
			return printFunc(experiments.Table1), nil
		}},
		{name: "fig2", title: "Fig. 2 — clock drift", run: func(eng *harness.Engine, tiny, smoke bool, seed int64) (printer, error) {
			cfg := pick(tiny, experiments.TinyFig2Config, experiments.DefaultFig2Config)
			seeded(seed, &cfg.Job.Seed)
			return experiments.RunFig2(eng, cfg)
		}, csv: "fig2_series.csv"},
		syncSuite("fig3", "Fig. 3 — HCA/HCA2/HCA3/JK accuracy vs duration",
			experiments.TinyFig3Config, experiments.DefaultFig3Config),
		syncSuite("fig4", "Fig. 4 — HCA3 vs H2HCA, Jupiter",
			experiments.TinyFig4Config, experiments.DefaultFig4Config),
		syncSuite("fig5", "Fig. 5 — HCA3 vs H2HCA, Hydra",
			experiments.TinyFig5Config, experiments.DefaultFig5Config),
		syncSuite("fig6", "Fig. 6 — HCA3 vs H2HCA, Titan",
			experiments.TinyFig6Config, experiments.DefaultFig6Config),
		{name: "fig7", title: "Fig. 7 — benchmark suite x barrier algorithm", run: func(eng *harness.Engine, tiny, smoke bool, seed int64) (printer, error) {
			cfg := pick(tiny, experiments.TinyFig7Config, experiments.DefaultFig7Config)
			cfg.Cut = cut
			cfg.Job.Workers = workers
			seeded(seed, &cfg.Job.Seed)
			return experiments.RunFig7(eng, cfg)
		}},
		{name: "fig8", title: "Fig. 8 — barrier exit imbalance", run: func(eng *harness.Engine, tiny, smoke bool, seed int64) (printer, error) {
			cfg := pick(tiny, experiments.TinyFig8Config, experiments.DefaultFig8Config)
			seeded(seed, &cfg.Job.Seed)
			return experiments.RunFig8(eng, cfg)
		}},
		{name: "fig9", title: "Fig. 9 — OSU vs Round-Time across message sizes", run: func(eng *harness.Engine, tiny, smoke bool, seed int64) (printer, error) {
			cfg := pick(tiny, experiments.TinyFig9Config, experiments.DefaultFig9Config)
			seeded(seed, &cfg.Job.Seed)
			return experiments.RunFig9(eng, cfg)
		}},
		{name: "fig10", title: "Fig. 10 — AMG2013 trace Gantt", run: func(eng *harness.Engine, tiny, smoke bool, seed int64) (printer, error) {
			cfg := pick(tiny, experiments.TinyFig10Config, experiments.DefaultFig10Config)
			seeded(seed, &cfg.Job.Seed)
			return experiments.RunFig10(eng, cfg)
		}, csv: "fig10_spans.csv"},
		{name: "ablations", title: "Ablations", run: func(eng *harness.Engine, tiny, smoke bool, seed int64) (printer, error) {
			cfg := pick(tiny, experiments.TinyAblationsConfig, experiments.DefaultAblationsConfig)
			cfg.Seed = seed
			return experiments.RunAblations(eng, cfg)
		}},
		{name: "driftaware", title: "Offset-only vs drift-aware global clocks", run: func(eng *harness.Engine, tiny, smoke bool, seed int64) (printer, error) {
			cfg := experiments.DefaultDriftAwareConfig()
			if tiny {
				cfg.NRuns = 2
			}
			seeded(seed, &cfg.Job.Seed)
			return experiments.RunDriftAware(eng, cfg)
		}},
		{name: "windowloss", title: "Window cascade vs Round-Time yield", run: func(eng *harness.Engine, tiny, smoke bool, seed int64) (printer, error) {
			cfg := experiments.DefaultWindowLossConfig()
			if tiny {
				cfg.NRep = 100
			}
			seeded(seed, &cfg.Job.Seed)
			return experiments.RunWindowLoss(eng, cfg)
		}},
		{name: "tracecorr", title: "Timestamp correction over a long trace", run: func(eng *harness.Engine, tiny, smoke bool, seed int64) (printer, error) {
			cfg := experiments.DefaultTraceCorrectionConfig()
			if tiny {
				cfg.NIter, cfg.ComputePer = 20, 2
			}
			seeded(seed, &cfg.Job.Seed)
			return experiments.RunTraceCorrection(eng, cfg)
		}},
		{name: "tuning", title: "PGMPITuneLib-style algorithm selection", run: func(eng *harness.Engine, tiny, smoke bool, seed int64) (printer, error) {
			cfg := experiments.DefaultTuningConfig()
			if tiny {
				cfg.NRep, cfg.MSizes = 10, []int{8, 8192}
			}
			seeded(seed, &cfg.Job.Seed)
			return experiments.RunTuning(eng, cfg)
		}},
		{name: "faults", title: "Faults — FT-HCA3 sync error under drop rate x crash count", run: func(eng *harness.Engine, tiny, smoke bool, seed int64) (printer, error) {
			cfg := pick(tiny, experiments.TinyFaultsConfig, experiments.DefaultFaultsConfig)
			cfg.Cut = cut
			seeded(seed, &cfg.Job.Seed)
			return experiments.RunFaults(eng, cfg)
		}},
		{name: "clockfaults", title: "Clock faults — LS vs robust sync under step x Byzantine", run: func(eng *harness.Engine, tiny, smoke bool, seed int64) (printer, error) {
			cfg := pick(tiny, experiments.TinyClockFaultsConfig, experiments.DefaultClockFaultsConfig)
			seeded(seed, &cfg.Job.Seed)
			return experiments.RunClockFaults(eng, cfg)
		}},
		{name: "scale", title: "Scale — fig6 at the full 16k ranks + 100k-1M-rank step-proc sweeps", run: func(eng *harness.Engine, tiny, smoke bool, seed int64) (printer, error) {
			cfg := experiments.DefaultScaleConfig()
			switch {
			case smoke:
				cfg = experiments.SmokeScaleConfig()
			case tiny:
				cfg = experiments.TinyScaleConfig()
			}
			cfg.Workers = workers
			cfg.Fig6.Job.Workers = workers
			seeded(seed, &cfg.Seed)
			seeded(seed, &cfg.Fig6.Job.Seed)
			return experiments.RunScale(eng, cfg)
		}},
	}
}

func main() {
	suites := flag.String("suite", "", "comma-separated suite names, or \"all\"")
	scale := flag.String("scale", "default", "default, tiny, or smoke (tiny everywhere except the scale suite, which keeps fig6 at full rank count)")
	jobs := flag.Int("jobs", runtime.NumCPU(), "simulations to run concurrently")
	workers := flag.Int("workers", 1, "kernel dispatch workers per simulation (parallel DES; results are byte-identical at any value)")
	fabricN := flag.Int("fabric", 0, "run simulations in N supervised child processes (fault-tolerant sweep fabric; results are byte-identical to -jobs N)")
	workerMode := flag.Bool("worker", false, "internal: serve fabric jobs on stdin/stdout")
	cache := flag.String("cache", ".expcache", "result-cache directory (empty disables caching)")
	outdir := flag.String("outdir", "", "write per-suite .txt outputs and manifest.json here")
	seed := flag.Int64("seed", 0, "override every suite's base seed")
	ckptPath := flag.String("checkpoint", "", "write a crash-resumable sweep ledger to this file")
	ckptEvery := flag.Int("checkpoint-every", 1, "flush the ledger after every N completed tasks or saved cuts")
	restore := flag.String("restore", "", "resume from this sweep ledger (implies -checkpoint to the same file)")
	list := flag.Bool("list", false, "list available suites and exit")
	quiet := flag.Bool("quiet", false, "suppress progress lines on stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (after a final GC) to this file")
	flag.Parse()

	if *workerMode {
		if *fabricN > 0 {
			fmt.Fprintln(os.Stderr, "runexp: -worker and -fabric are mutually exclusive")
			os.Exit(2)
		}
		if err := runWorker(); err != nil {
			fail(err)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	switch *scale {
	case "default", "tiny", "smoke":
	default:
		fmt.Fprintf(os.Stderr, "runexp: unknown -scale %q (default, tiny, or smoke)\n", *scale)
		os.Exit(2)
	}
	if *restore != "" && *ckptPath != "" && *restore != *ckptPath {
		fmt.Fprintln(os.Stderr, "runexp: -restore and -checkpoint must name the same ledger file")
		os.Exit(2)
	}
	if *ckptPath == "" {
		*ckptPath = *restore
	}
	reg := registry(*ckptPath != "", *workers)
	if *list {
		for _, s := range reg {
			fmt.Printf("%-12s %s\n", s.name, s.title)
		}
		return
	}
	if *suites == "" {
		fmt.Fprintln(os.Stderr, "runexp: -suite is required (try -list)")
		os.Exit(2)
	}
	var selected []suiteDef
	if *suites == "all" {
		selected = reg
	} else {
		byName := map[string]suiteDef{}
		for _, s := range reg {
			byName[s.name] = s
		}
		for _, name := range strings.Split(*suites, ",") {
			s, ok := byName[strings.TrimSpace(name)]
			if !ok {
				var known []string
				for n := range byName { //synclint:ordered -- keys collected then sorted below
					known = append(known, n)
				}
				sort.Strings(known)
				fmt.Fprintf(os.Stderr, "runexp: unknown suite %q (known: %s)\n",
					name, strings.Join(known, ", "))
				os.Exit(2)
			}
			selected = append(selected, s)
		}
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fail(err)
		}
	}

	opts := harness.Options{Jobs: *jobs, CacheDir: *cache}
	if !*quiet {
		opts.Reporter = harness.NewProgressReporter(os.Stderr)
	}
	var ckpt *harness.Checkpointer
	if *ckptPath != "" {
		ckpt = harness.NewCheckpointer(*ckptPath, *ckptEvery, "")
		if *restore != "" {
			if err := ckpt.Load(); err != nil {
				fail(fmt.Errorf("restoring %s: %w", *restore, err))
			}
		}
		opts.Checkpoint = ckpt
	}
	var pool *fabric.Pool
	if *fabricN > 0 {
		exe, err := os.Executable()
		if err != nil {
			fail(fmt.Errorf("locating own executable for -fabric workers: %w", err))
		}
		pcfg := fabric.Config{
			Workers:    *fabricN,
			Command:    []string{exe, "-worker"},
			Scale:      *scale,
			Seed:       *seed,
			Cut:        *ckptPath != "",
			SimWorkers: *workers,
			JitterSeed: *seed,
		}
		if ckpt != nil {
			// Mirror worker cut snapshots into the coordinator's own sweep
			// ledger, and ship -restore'd cuts out to workers.
			pcfg.Cuts = ckpt.Task
		}
		if !*quiet {
			pcfg.Logf = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}
		pool, err = fabric.NewPool(pcfg)
		if err != nil {
			fail(err)
		}
		defer pool.Close()
		opts.Remote = pool
		// One engine slot per fabric worker: each slot just blocks on its
		// dispatched job, so wider would only queue jobs at the pool.
		opts.Jobs = *fabricN
	}
	eng := harness.New(opts)
	start := time.Now() //synclint:wallclock -- wall-time telemetry for the manifest; never hashed

	for _, s := range selected {
		if pool != nil {
			// The registry entry name disambiguates which suite's
			// decomposition a worker must replay: several entries share one
			// harness suite name (fig3–fig6 are all "syncaccuracy").
			pool.SetEntry(s.name)
		}
		res, err := s.run(eng, *scale != "default", *scale == "smoke", *seed)
		if err != nil {
			fail(fmt.Errorf("%s: %w", s.name, err))
		}
		fmt.Printf("\n==================== %s ====================\n", s.title)
		res.Print(os.Stdout)
		if *outdir != "" {
			writeFile(filepath.Join(*outdir, s.name+".txt"), func(w io.Writer) error {
				res.Print(w)
				return nil
			})
			if s.csv != "" {
				writeFile(filepath.Join(*outdir, s.csv), res.(csvWriter).WriteCSV)
			}
		}
	}

	if ckpt != nil {
		if err := ckpt.Flush(); err != nil {
			fail(fmt.Errorf("flushing checkpoint: %w", err))
		}
	}

	if pool != nil {
		pool.Close() // idempotent; workers are down before stats are read
	}
	m := harness.NewRunManifest("runexp", eng, start, eng.Manifests())
	if pool != nil {
		m.Fabric = pool.Stats()
	}
	if *outdir != "" {
		if err := m.Write(filepath.Join(*outdir, "manifest.json")); err != nil {
			fail(err)
		}
	}
	// On stderr, like every timing line: stdout must stay byte-comparable
	// across runs and job counts.
	fmt.Fprintf(os.Stderr, "\nrunexp: %d sims in %v, %d served from cache (%.0f%% hit rate)\n",
		m.Sims, time.Since(start).Round(time.Millisecond), m.CacheHits, 100*m.HitRate()) //synclint:wallclock -- progress message on stderr only
}

// runWorker is the child-process side of -fabric: it serves fabric jobs
// on stdin/stdout until the coordinator closes the pipe. Each job re-runs
// the registry entry named in the request with a single-job engine whose
// filter skips every task but the requested one — so the task's config and
// seed are rebuilt from the same first principles as in the coordinator —
// and whose observer captures that task's canonical-JSON result. Several
// tasks of one entry may share a (suite, name) pair — the ablations entry
// runs two fig2 "drift" tasks — so the observer picks the one whose cache
// key the coordinator asked for. The
// streaming ledger handed in by ServeWorker replays any migrated resume
// snapshot into the task and relays its cut saves back over the wire.
func runWorker() error {
	return fabric.ServeWorker(os.Stdin, os.Stdout, fabric.WorkerOptions{}, func(req fabric.JobRequest, ledger harness.Ledger) (string, json.RawMessage, error) {
		reg := registry(req.Cut, req.Workers)
		var def *suiteDef
		for i := range reg {
			if reg[i].name == req.Entry {
				def = &reg[i]
				break
			}
		}
		if def == nil {
			return "", nil, fmt.Errorf("unknown registry entry %q", req.Entry)
		}
		var (
			key   string
			raw   json.RawMessage
			found bool
			merr  error
		)
		eng := harness.New(harness.Options{
			Jobs:       1,
			Checkpoint: ledger,
			Filter: func(suite, name string) bool {
				return suite == req.Suite && name == req.Task
			},
			Observer: func(suite, name, k string, seed int64, result any) {
				if suite != req.Suite || name != req.Task || found || (req.Key != "" && k != req.Key) {
					return
				}
				b, err := json.Marshal(result)
				if err != nil {
					merr = fmt.Errorf("marshaling %s/%s result: %w", suite, name, err)
					return
				}
				key, raw, found = k, b, true
			},
		})
		if _, err := def.run(eng, req.Scale != "default", req.Scale == "smoke", req.Seed); err != nil {
			return "", nil, err
		}
		if merr != nil {
			return "", nil, merr
		}
		if !found {
			return "", nil, fmt.Errorf("task %s/%s not in entry %q's decomposition", req.Suite, req.Task, req.Entry)
		}
		return key, raw, nil
	})
}

// writeFile creates path and fills it with emit, exiting on any error.
func writeFile(path string, emit func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := emit(f); err != nil {
		fail(fmt.Errorf("writing %s: %w", path, err))
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "runexp:", err)
	os.Exit(1)
}
