package hclocksync_test

// One benchmark per table and figure of the paper, at the reduced "tiny"
// scale (see internal/experiments/tiny.go; the cmd/ tools run the larger
// default scale). Each benchmark reports, besides ns/op, the experiment's
// headline quantities as custom metrics so `go test -bench=.` regenerates
// the paper's numbers in one sweep.

import (
	"io"
	"runtime"
	"testing"

	"hclocksync/internal/bench"
	"hclocksync/internal/checkpoint"
	"hclocksync/internal/clock"
	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
	"hclocksync/internal/experiments"
	"hclocksync/internal/mpi"
	"hclocksync/internal/scale"
	"hclocksync/internal/sim"
	"hclocksync/internal/stats"
)

func BenchmarkTable1Machines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(io.Discard)
	}
}

func BenchmarkFig2Drift(b *testing.B) {
	var r2full, r2short float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig2(nil, experiments.TinyFig2Config())
		if err != nil {
			b.Fatal(err)
		}
		var sf, ss float64
		for _, s := range res.Series {
			sf += s.FullFit.R2
			ss += s.ShortR2
		}
		r2full = sf / float64(len(res.Series))
		r2short = ss / float64(len(res.Series))
	}
	b.ReportMetric(r2full, "R2full")
	b.ReportMetric(r2short, "R2short")
}

func benchSyncAccuracy(b *testing.B, cfg experiments.SyncAccuracyConfig) {
	b.Helper()
	var res *experiments.SyncAccuracyResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunSyncAccuracy(nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the first and last algorithm's mean offsets after the wait
	// (µs) — enough to see the ordering in the bench table.
	labels := map[string]bool{}
	idx := 0
	for _, row := range res.Runs {
		if !labels[row.Label] {
			labels[row.Label] = true
			_, _, atW := res.MeanFor(row.Label)
			b.ReportMetric(atW*1e6, "alg"+string(rune('A'+idx))+"_usAtW")
			idx++
		}
	}
}

func BenchmarkFig3FlatSync(b *testing.B)  { benchSyncAccuracy(b, experiments.TinyFig3Config()) }
func BenchmarkFig4Hier(b *testing.B)      { benchSyncAccuracy(b, experiments.TinyFig4Config()) }
func BenchmarkFig5HierHydra(b *testing.B) { benchSyncAccuracy(b, experiments.TinyFig5Config()) }
func BenchmarkFig6HierTitan(b *testing.B) { benchSyncAccuracy(b, experiments.TinyFig6Config()) }

func BenchmarkFig7BarrierEffect(b *testing.B) {
	var tree, bruck float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7(nil, experiments.TinyFig7Config())
		if err != nil {
			b.Fatal(err)
		}
		tree = res.LatencyFor(bench.SuiteOSU, mpi.BarrierTree, 8)
		bruck = res.LatencyFor(bench.SuiteOSU, mpi.BarrierDissemination, 8)
	}
	b.ReportMetric(tree*1e6, "osu_tree_us")
	b.ReportMetric(bruck*1e6, "osu_bruck_us")
}

func BenchmarkFig8Imbalance(b *testing.B) {
	cfg := experiments.TinyFig8Config()
	cfg.NCalls = 60
	cfg.NRuns = 1
	var tree, ring float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig8(nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		tree = res.MeanFor(mpi.BarrierTree)
		ring = res.MeanFor(mpi.BarrierDoubleRing)
	}
	b.ReportMetric(tree*1e6, "tree_us")
	b.ReportMetric(ring*1e6, "double_ring_us")
}

func BenchmarkFig9RoundTime(b *testing.B) {
	var osu, rt float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig9(nil, experiments.TinyFig9Config())
		if err != nil {
			b.Fatal(err)
		}
		osu = res.MeanFor(bench.SuiteOSU, 8)
		rt = res.MeanFor(bench.SuiteReproMPIRoundTime, 8)
	}
	b.ReportMetric(osu*1e6, "osu8B_us")
	b.ReportMetric(rt*1e6, "roundtime8B_us")
}

func BenchmarkFig10Trace(b *testing.B) {
	var localSpread, globalSpread float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig10(nil, experiments.TinyFig10Config())
		if err != nil {
			b.Fatal(err)
		}
		localSpread = res.PanelFor(false, cluster.GTOD).SpreadOfStarts()
		globalSpread = res.PanelFor(true, cluster.GTOD).SpreadOfStarts()
	}
	b.ReportMetric(localSpread*1e6, "local_gtod_spread_us")
	b.ReportMetric(globalSpread*1e6, "global_gtod_spread_us")
}

// --- Ablation benches (DESIGN.md §4) ---

func BenchmarkAblationJKOffsetAlg(b *testing.B) {
	var meanRTT, skampi float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationJKOffsetAlg(nil, experiments.TinyAblationsConfig())
		if err != nil {
			b.Fatal(err)
		}
		var ls []string
		seen := map[string]bool{}
		for _, row := range res.Runs {
			if !seen[row.Label] {
				seen[row.Label] = true
				ls = append(ls, row.Label)
			}
		}
		_, _, meanRTT = res.MeanFor(ls[0])
		_, _, skampi = res.MeanFor(ls[1])
	}
	b.ReportMetric(meanRTT*1e6, "jk_meanRTT_usAtW")
	b.ReportMetric(skampi*1e6, "jk_skampi_usAtW")
}

func BenchmarkAblationRecomputeIntercept(b *testing.B) {
	var without, with float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationRecomputeIntercept(nil, experiments.TinyAblationsConfig())
		if err != nil {
			b.Fatal(err)
		}
		var ls []string
		seen := map[string]bool{}
		for _, row := range res.Runs {
			if !seen[row.Label] {
				seen[row.Label] = true
				ls = append(ls, row.Label)
			}
		}
		_, without, _ = res.MeanFor(ls[0])
		_, with, _ = res.MeanFor(ls[1])
	}
	b.ReportMetric(without*1e6, "plain_usAt0")
	b.ReportMetric(with*1e6, "recompute_usAt0")
}

func BenchmarkAblationWander(b *testing.B) {
	cfg := experiments.TinyAblationsConfig()
	cfg.WanderProcs = 5
	var on, off float64
	for i := 0; i < b.N; i++ {
		w1, w0, err := experiments.AblationWander(nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		on = experiments.MeanFullR2(w1)
		off = experiments.MeanFullR2(w0)
	}
	b.ReportMetric(on, "R2_wanderOn")
	b.ReportMetric(off, "R2_wanderOff")
}

// --- Substrate micro-benchmarks: cost of the building blocks ---

func runBench(b *testing.B, nprocs int, main func(p *mpi.Proc)) {
	b.Helper()
	cfg := mpi.Config{Spec: cluster.TestBox(), NProcs: nprocs, Seed: 99}
	if err := mpi.Run(cfg, main); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSimBarrierAlgorithms(b *testing.B) {
	for _, alg := range mpi.BarrierAlgs() {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			runBench(b, 16, func(p *mpi.Proc) {
				for i := 0; i < b.N; i++ {
					p.World().BarrierWith(alg)
				}
			})
		})
	}
}

func BenchmarkSimAllreduceAlgorithms(b *testing.B) {
	for _, alg := range mpi.AllreduceAlgs() {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			runBench(b, 16, func(p *mpi.Proc) {
				for i := 0; i < b.N; i++ {
					p.World().AllreduceWith([]float64{1}, mpi.OpSum, alg)
				}
			})
		})
	}
}

func BenchmarkHCA3Sync(b *testing.B) {
	b.ReportAllocs()
	params := clocksync.Params{NFitpoints: 20, Offset: clocksync.SKaMPIOffset{NExchanges: 5}}
	for i := 0; i < b.N; i++ {
		if err := mpi.Run(mpi.Config{Spec: cluster.TestBox(), NProcs: 16, Seed: int64(i)},
			func(p *mpi.Proc) {
				clocksync.HCA3{Params: params}.Sync(p.World(), clock.NewLocal(p))
			}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshot(b *testing.B) {
	// Cost of one checkpoint at a quiescent cut: capture the session state
	// and serialize it, with in-flight messages and drifted clocks in the
	// picture. B/rank is the serialized size per rank.
	const nprocs = 16
	s, err := mpi.NewSession(mpi.Config{Spec: cluster.TestBox(), NProcs: nprocs, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	err = s.RunPhase(func(p *mpi.Proc) {
		c := p.World()
		c.Barrier()
		c.AllreduceF64(float64(p.Rank()), mpi.OpSum)
		// Leave one message per even rank in flight across the cut.
		if p.Rank()%2 == 0 && p.Rank()+1 < c.Size() {
			c.SendF64(p.Rank()+1, 1, p.TrueNow())
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var raw []byte
	for i := 0; i < b.N; i++ {
		st, err := s.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		raw = checkpoint.EncodeSession(&checkpoint.Session{Cut: 1, State: st})
	}
	b.ReportMetric(float64(len(raw))/nprocs, "B/rank")
}

func BenchmarkDispatch(b *testing.B) {
	// Per-event dispatch cost of the kernel's two process representations:
	// a step proc is resumed by an inline function call, a fiber by a
	// channel handoff (here always the single-fiber fast path, so no
	// goroutine switch — the gap against "step" is pure baton overhead).
	b.Run("step", func(b *testing.B) {
		b.ReportAllocs()
		env := sim.NewEnv(1)
		remaining := b.N
		env.SpawnStep(func(p *sim.Proc) sim.Control {
			if remaining--; remaining <= 0 {
				return sim.Stop()
			}
			return p.After(1e-6)
		})
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("fiber", func(b *testing.B) {
		b.ReportAllocs()
		env := sim.NewEnv(1)
		env.Spawn(func(p *sim.Proc) {
			for i := 1; i < b.N; i++ {
				p.Sleep(1e-6)
			}
		})
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	})
	// Whole-simulation dispatch throughput on the scale suite's 1M-rank
	// sharded hiersync workload: serial dispatch vs the parallel windowed
	// dispatcher at 4 workers. Results are byte-identical by construction
	// (the scale goldens pin that); this pair measures only the speed. The
	// parallel/serial ratio is only meaningful on a multi-core host — on a
	// single-CPU machine the workers serialize and the ratio reads as pure
	// coordination overhead (see DESIGN.md §13).
	for _, d := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 4}} {
		b.Run(d.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := scale.HierSyncConfig{
				Ranks: 1_000_000, Exchanges: 10, Latency: 2e-6, Jitter: 5e-7,
				Seed: 11, Shards: 8, Workers: d.workers,
			}
			var events uint64
			for i := 0; i < b.N; i++ {
				st, err := scale.RunHierSync(cfg)
				if err != nil {
					b.Fatal(err)
				}
				events = st.Events
			}
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

func BenchmarkKernelMemoryPerRank(b *testing.B) {
	// Resident heap per rank of a spawned 100k-rank step-proc population —
	// the number that decides whether 1M-rank simulations fit in memory.
	// B/rank is measured; kernelB/rank is the compile-time lower bound
	// (sim.KernelBytesPerProc) for comparison.
	const ranks = 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		env := sim.NewEnv(1)
		env.SpawnSteps(ranks, func(p *sim.Proc) sim.Control {
			if p.Now() > 0 {
				return sim.Stop()
			}
			return p.After(1e-6)
		})
		runtime.GC()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/ranks, "B/rank")
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sim.KernelBytesPerProc()), "kernelB/rank")
}

func BenchmarkLinearFit(b *testing.B) {
	xs := make([]float64, 1000)
	ys := make([]float64, 1000)
	for i := range xs {
		xs[i] = 4e4 + float64(i)*1e-3
		ys[i] = 1.5e-6*xs[i] - 0.25
	}
	b.ReportAllocs()
	b.ResetTimer()
	var r stats.LinReg
	for i := 0; i < b.N; i++ {
		r = stats.FitLinear(xs, ys)
	}
	_ = r
}

// --- Extension benches (experiments beyond the paper's figures) ---

func BenchmarkExtDriftAware(b *testing.B) {
	cfg := experiments.DefaultDriftAwareConfig()
	cfg.NRuns = 1
	cfg.Waits = []float64{10}
	var skampi, hca3 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDriftAware(nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		skampi = res.AtWait(res.Labels[0], 1)
		hca3 = res.AtWait(res.Labels[1], 1)
	}
	b.ReportMetric(skampi*1e6, "offsetOnly10s_us")
	b.ReportMetric(hca3*1e6, "driftAware10s_us")
}

func BenchmarkExtWindowLoss(b *testing.B) {
	cfg := experiments.DefaultWindowLossConfig()
	cfg.NRep = 100
	var wy, ry float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunWindowLoss(nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		wy, ry = res.WindowYield(), res.RoundYield()
	}
	b.ReportMetric(100*wy, "window_yield_pct")
	b.ReportMetric(100*ry, "roundtime_yield_pct")
}

func BenchmarkExtTraceCorrection(b *testing.B) {
	cfg := experiments.DefaultTraceCorrectionConfig()
	cfg.NIter = 20
	var interp, once, periodic float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTraceCorrection(nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		interp = res.MidSpread(experiments.SchemeInterpolation)
		once = res.MaxSpread(experiments.SchemeSyncOnce)
		periodic = res.MaxSpread(experiments.SchemePeriodic)
	}
	b.ReportMetric(interp*1e6, "interp_mid_us")
	b.ReportMetric(once*1e6, "syncOnce_max_us")
	b.ReportMetric(periodic*1e6, "periodic_max_us")
}

func BenchmarkSimAlltoallAlgorithms(b *testing.B) {
	for _, alg := range mpi.AlltoallAlgs() {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			runBench(b, 16, func(p *mpi.Proc) {
				chunks := make([][]byte, 16)
				for i := range chunks {
					chunks[i] = make([]byte, 8)
				}
				for i := 0; i < b.N; i++ {
					p.World().Alltoall(chunks, alg)
				}
			})
		})
	}
}

func BenchmarkExtTuning(b *testing.B) {
	cfg := experiments.DefaultTuningConfig()
	cfg.MSizes = []int{8, 262144}
	cfg.NRep = 15
	spec := cfg.Job.Spec
	spec.Nodes, spec.CoresPerSocket = 8, 2
	cfg.Job = experiments.Job{Spec: spec, NProcs: 32, Seed: 18}
	var disagree float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTuning(nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		disagree = float64(res.Disagreements())
	}
	b.ReportMetric(disagree, "winner_disagreements")
}
