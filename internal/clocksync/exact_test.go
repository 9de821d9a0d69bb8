package clocksync

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"hclocksync/internal/clock"
	"hclocksync/internal/cluster"
	"hclocksync/internal/mpi"
)

// offsetOnlyBox: deterministic links, clocks with offsets but ZERO skew and
// wander — every algorithm should recover the offsets almost exactly and
// the resulting global clocks should agree to sub-microsecond forever.
func offsetOnlyBox() cluster.MachineSpec {
	s := noJitterBox()
	s.Mono.SkewSpread = 0
	s.Mono.WanderSigma = 0
	// Even 1 ns read granularity induces ~ppm regression-slope noise over
	// a sub-millisecond fit span; exactness needs continuous readings.
	s.Mono.Granularity = 0
	return s
}

func TestAllAlgorithmsExactOnOffsetOnlyClocks(t *testing.T) {
	algs := []Algorithm{
		HCA{smallParams},
		HCA2{smallParams},
		HCA3{smallParams},
		JK{smallParams},
		NewH2HCA(HCA3{smallParams}),
	}
	for _, alg := range algs {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			at0, at60 := syncSpread(t, offsetOnlyBox(), 16, 44, alg, 60)
			if at0 > 5e-7 {
				t.Errorf("spread at 0 s = %v, want < 0.5 µs", at0)
			}
			// Zero skew, zero noise: the models must hold for a
			// minute as well.
			if at60 > 1e-6 {
				t.Errorf("spread after 60 s = %v", at60)
			}
		})
	}
}

func TestHCA2MergeMatchesDirectModel(t *testing.T) {
	// On an offset-only machine, rank 0's merged model for a grandchild
	// must equal the true offset: global(rank3 local) == rank0 local.
	spec := offsetOnlyBox()
	var mu sync.Mutex
	models := map[int]clock.LinearModel{}
	err := mpi.Run(mpi.Config{Spec: spec, NProcs: 8, Seed: 45}, func(p *mpi.Proc) {
		g := HCA2{smallParams}.Sync(p.World(), clock.NewLocal(p))
		_, m := clock.Collapse(g)
		mu.Lock()
		models[p.Rank()] = m
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := cluster.NewMachine(spec, 8, cluster.MapBlock, 45)
	_ = m
	// Verify each model against ground truth at a probe instant. The
	// machine inside mpi.Run was seeded with the same seed, so clock
	// parameters are identical.
	for r := 1; r < 8; r++ {
		const T = 100.0
		localR := m.Clock(r, cluster.Monotonic).ReadAt(T)
		local0 := m.Clock(0, cluster.Monotonic).ReadAt(T)
		adj := localR - models[r].Predict(localR)
		if diff := math.Abs(adj - local0); diff > 1e-6 {
			t.Errorf("rank %d: merged model misses truth by %v s", r, diff)
		}
	}
}

// Property: Merge is associative — merging a three-hop chain either way
// gives the same composite model (up to float rounding).
func TestMergeAssociativityProperty(t *testing.T) {
	f := func(s1, i1, s2, i2, s3, i3 int16) bool {
		m1 := clock.LinearModel{Slope: float64(s1) * 1e-8, Intercept: float64(i1) * 1e-5}
		m2 := clock.LinearModel{Slope: float64(s2) * 1e-8, Intercept: float64(i2) * 1e-5}
		m3 := clock.LinearModel{Slope: float64(s3) * 1e-8, Intercept: float64(i3) * 1e-5}
		a := clock.Merge(clock.Merge(m1, m2), m3)
		b := clock.Merge(m1, clock.Merge(m2, m3))
		return math.Abs(a.Slope-b.Slope) < 1e-15 &&
			math.Abs(a.Intercept-b.Intercept) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSyncDeterministicReplay(t *testing.T) {
	run := func() (float64, float64) {
		return syncSpreadNoT(cluster.TestBox(), 13, 46, HCA3{smallParams}, 2)
	}
	a0, a2 := run()
	b0, b2 := run()
	if a0 != b0 || a2 != b2 {
		t.Errorf("replay diverged: (%v,%v) vs (%v,%v)", a0, a2, b0, b2)
	}
}

// syncSpreadNoT is syncSpread without the testing.T plumbing, for replay
// comparison.
func syncSpreadNoT(spec cluster.MachineSpec, nprocs int, seed int64,
	alg Algorithm, after float64) (at0, atAfter float64) {
	var mu sync.Mutex
	readings0 := make([]float64, nprocs)
	readingsW := make([]float64, nprocs)
	m, err := cluster.NewMachine(spec, nprocs, cluster.MapBlock, seed)
	if err != nil {
		panic(err)
	}
	var syncEnd float64
	err = mpi.Run(mpi.Config{Spec: spec, NProcs: nprocs, Seed: seed}, func(p *mpi.Proc) {
		g := alg.Sync(p.World(), clock.NewLocal(p))
		end := p.World().AllreduceF64(p.TrueNow(), mpi.OpMax)
		mu.Lock()
		if syncEnd == 0 {
			syncEnd = end
		}
		readings0[p.Rank()] = globalReading(g, p.HWClock(), end)
		readingsW[p.Rank()] = globalReading(g, p.HWClock(), end+after)
		mu.Unlock()
	})
	if err != nil {
		panic(err)
	}
	_ = m
	lo0, hi0 := readings0[0], readings0[0]
	loW, hiW := readingsW[0], readingsW[0]
	for i := 1; i < nprocs; i++ {
		lo0 = math.Min(lo0, readings0[i])
		hi0 = math.Max(hi0, readings0[i])
		loW = math.Min(loW, readingsW[i])
		hiW = math.Max(hiW, readingsW[i])
	}
	return hi0 - lo0, hiW - loW
}

func TestHierWithMeasuringBottom(t *testing.T) {
	// The framework allows a measuring algorithm (not just propagation)
	// at the bottom level — needed when node cores do NOT share a source.
	spec := cluster.TestBox()
	spec.ClockDomain = cluster.DomainCore
	alg := Hier{Top: HCA3{smallParams}, Bottom: HCA3{smallParams}, Group: ByNode}
	at0, _ := syncSpread(t, spec, 16, 47, alg, 0)
	if at0 > 3e-6 {
		t.Errorf("spread at 0 s = %v", at0)
	}
}

func TestMixedOffsetAlgorithmsInHierarchy(t *testing.T) {
	// Different levels may use different offset algorithms (paper §IV-A:
	// "different synchronization algorithm or different parameter
	// settings at each level").
	top := HCA3{Params{NFitpoints: 15, Offset: SKaMPIOffset{NExchanges: 8}}}
	bottom := HCA3{Params{NFitpoints: 10, Offset: MeanRTTOffset{NExchanges: 6}}}
	spec := cluster.TestBox()
	spec.ClockDomain = cluster.DomainCore
	alg := Hier{Top: top, Bottom: bottom, Group: ByNode}
	at0, _ := syncSpread(t, spec, 16, 48, alg, 0)
	if at0 > 5e-6 {
		t.Errorf("spread at 0 s = %v", at0)
	}
}

func TestH3HCAMatchesH2HCAOnNodeClocks(t *testing.T) {
	// Paper §IV-E: "We do not show experimental results for H3HCA, as they
	// were found to be almost identical to the ones produced by H2HCA"
	// when compute nodes have a common time source. With node-level
	// clocks, the extra socket level is pure propagation, so the two
	// schemes must land within the same accuracy regime.
	h2 := NewH2HCA(HCA3{smallParams})
	h3 := NewH3HCA(HCA3{smallParams}, ClockPropSync{})
	a2, _ := syncSpread(t, cluster.TestBox(), 16, 50, h2, 0)
	a3, _ := syncSpread(t, cluster.TestBox(), 16, 50, h3, 0)
	if a3 > 5*a2+1e-6 || a2 > 5*a3+1e-6 {
		t.Errorf("H3HCA (%v) and H2HCA (%v) should be almost identical on node clocks", a3, a2)
	}
}
