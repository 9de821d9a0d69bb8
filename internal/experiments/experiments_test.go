package experiments

import (
	"strings"
	"testing"

	"hclocksync/internal/bench"
	"hclocksync/internal/cluster"
	"hclocksync/internal/mpi"
)

func TestTable1PrintsAllMachines(t *testing.T) {
	var b strings.Builder
	Table1(&b)
	out := b.String()
	for _, name := range []string{"Jupiter", "Hydra", "Titan"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table 1 missing %s:\n%s", name, out)
		}
	}
}

func TestFig2DriftLinearityClaim(t *testing.T) {
	res, err := RunFig2(nil, TinyFig2Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 5 {
		t.Fatalf("%d series, want 5", len(res.Series))
	}
	// Paper's claim (Fig. 2c): over a ~10 s window the drift is linear
	// with R² typically above 0.9. Check it holds for most ranks.
	good := 0
	for _, s := range res.Series {
		if len(s.Points) < 30 {
			t.Fatalf("rank %d has only %d points", s.Rank, len(s.Points))
		}
		if s.ShortR2 > 0.9 {
			good++
		}
	}
	if good < 3 {
		t.Errorf("only %d/5 ranks have short-window R² > 0.9", good)
	}
	var b strings.Builder
	res.Print(&b)
	if !strings.Contains(b.String(), "R2") {
		t.Error("Print output missing fit columns")
	}
	b.Reset()
	if err := res.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "rank,t_s,offset_us,fit_us") {
		t.Error("WriteCSV missing header")
	}
}

func TestFig3SyncAccuracyHarness(t *testing.T) {
	res, err := RunSyncAccuracy(nil, TinyFig3Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 4*3 {
		t.Fatalf("%d runs, want 12", len(res.Runs))
	}
	for _, row := range res.Runs {
		if row.Duration <= 0 {
			t.Errorf("%s run %d: duration %v", row.Label, row.Run, row.Duration)
		}
		if row.MaxAbs0 <= 0 || row.MaxAbs0 > 1e-4 {
			t.Errorf("%s run %d: max offset at 0 s = %v", row.Label, row.Run, row.MaxAbs0)
		}
		if row.TrueSpread0 <= 0 {
			t.Errorf("%s run %d: true spread %v", row.Label, row.Run, row.TrueSpread0)
		}
	}
	// JK is O(p): slowest of the four on 16 ranks (paper §III-C3).
	labels := res.labels()
	var jkDur, hca3Dur float64
	for _, l := range labels {
		d, _, _ := res.MeanFor(l)
		if strings.HasPrefix(l, "jk/") {
			jkDur = d
		}
		if strings.HasPrefix(l, "hca3/") {
			hca3Dur = d
		}
	}
	if jkDur <= hca3Dur {
		t.Errorf("JK mean duration (%v) should exceed HCA3's (%v)", jkDur, hca3Dur)
	}
	var b strings.Builder
	res.Print(&b)
	if !strings.Contains(b.String(), "algorithm (means)") {
		t.Error("Print missing means block")
	}
}

func TestFig4HierarchicalFasterClaim(t *testing.T) {
	res, err := RunSyncAccuracy(nil, TinyFig4Config())
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 4: with the same (nfit, nexch), H2HCA completes faster
	// than flat HCA3 because it learns fewer models.
	var flatDur, hierDur float64
	for _, l := range res.labels() {
		d, _, _ := res.MeanFor(l)
		if strings.HasPrefix(l, "hca3/recompute intercept/40/") {
			flatDur = d
		}
		if strings.HasPrefix(l, "Top/hca3/40/") {
			hierDur = d
		}
	}
	if flatDur == 0 || hierDur == 0 {
		t.Fatalf("labels not found in %v", res.labels())
	}
	if hierDur >= flatDur {
		t.Errorf("H2HCA (%v s) should be faster than flat HCA3 (%v s)", hierDur, flatDur)
	}
}

func TestFig6SamplesOnlyTenth(t *testing.T) {
	cfg := TinyFig6Config()
	res, err := RunSyncAccuracy(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Runs {
		if row.MaxAbs0 <= 0 {
			t.Errorf("%s: sampled accuracy check produced no data", row.Label)
		}
	}
}

func TestFig7BarrierChoiceMatters(t *testing.T) {
	res, err := RunFig7(nil, TinyFig7Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3*3*3 {
		t.Fatalf("%d rows, want 27", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Latency <= 0 || row.Latency > 1e-3 {
			t.Errorf("%s/%s/%dB latency = %v", row.Suite, row.Barrier, row.MSize, row.Latency)
		}
	}
	// The barrier algorithm must influence the barrier-based suites'
	// results (the paper's dilemma): for OSU at 8 B, the spread across
	// barriers should be a noticeable fraction of the latency.
	var lats []float64
	for _, b := range res.Config.Barriers {
		lats = append(lats, res.LatencyFor(bench.SuiteOSU, b, 8))
	}
	lo, hi := lats[0], lats[0]
	for _, v := range lats {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if (hi-lo)/lo < 0.02 {
		t.Errorf("barrier choice changed OSU latency by only %.1f%%", 100*(hi-lo)/lo)
	}
	var b strings.Builder
	res.Print(&b)
	if !strings.Contains(b.String(), "msize = 8 Bytes") {
		t.Error("Print missing msize panel")
	}
}

func TestFig8DoubleRingWorst(t *testing.T) {
	res, err := RunFig8(nil, TinyFig8Config())
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range res.Config.Barriers {
		if n := len(res.Imbalances[alg]); n != 300 {
			t.Errorf("%s: %d samples, want 300", alg, n)
		}
	}
	// Paper Fig. 8 and text: double ring has the largest imbalance; tree
	// the smallest of the four.
	ring := res.MeanFor(mpi.BarrierDoubleRing)
	tree := res.MeanFor(mpi.BarrierTree)
	bruck := res.MeanFor(mpi.BarrierDissemination)
	recd := res.MeanFor(mpi.BarrierRecursiveDoubling)
	if !(ring > bruck && ring > recd && ring > tree) {
		t.Errorf("double ring (%v) should dominate: bruck %v, recd %v, tree %v",
			ring, bruck, recd, tree)
	}
	if !(tree < bruck && tree < recd) {
		t.Errorf("tree (%v) should be smallest: bruck %v, recd %v", tree, bruck, recd)
	}
	var b strings.Builder
	res.PrintHistograms(&b, 8)
	if !strings.Contains(b.String(), "double_ring:") || !strings.Contains(b.String(), "#") {
		t.Error("histogram output malformed")
	}
}

func TestFig9OSUInflationShrinksWithSize(t *testing.T) {
	cfg := TinyFig9Config()
	// The relative-inflation ordering is a statement about means; at the
	// tiny scale's 2x20 samples per point it can drown in round-to-round
	// noise, so give this test a few more runs and repetitions.
	cfg.NRuns = 4
	cfg.NRep = 40
	res, err := RunFig9(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 9: OSU exceeds Round-Time at small sizes; the relative
	// gap narrows as the message grows.
	osu8 := res.MeanFor(bench.SuiteOSU, 8)
	rt8 := res.MeanFor(bench.SuiteReproMPIRoundTime, 8)
	if !(osu8 > rt8) {
		t.Errorf("at 8 B OSU (%v) should exceed Round-Time (%v)", osu8, rt8)
	}
	rel := func(m int) float64 {
		o := res.MeanFor(bench.SuiteOSU, m)
		r := res.MeanFor(bench.SuiteReproMPIRoundTime, m)
		return (o - r) / r
	}
	if rel(1024) >= rel(8) {
		t.Errorf("relative OSU inflation should shrink with size: 8B=%.2f, 1024B=%.2f",
			rel(8), rel(1024))
	}
}

func TestFig10GlobalClockRevealsStructure(t *testing.T) {
	res, err := RunFig10(nil, TinyFig10Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 4 {
		t.Fatalf("%d panels", len(res.Panels))
	}
	gMono := res.PanelFor(true, cluster.Monotonic)
	lMono := res.PanelFor(false, cluster.Monotonic)
	gTod := res.PanelFor(true, cluster.GTOD)
	lTod := res.PanelFor(false, cluster.GTOD)
	// Fig. 10b: local clock_gettime starts scatter by boot-time offsets
	// (hours); Fig. 10d: local gettimeofday scatter is NTP-bounded
	// (sub-ms) but still far larger than the global-clock panels.
	if lMono.SpreadOfStarts() < 1 {
		t.Errorf("local clock_gettime spread = %v s; expected boot-offset scatter", lMono.SpreadOfStarts())
	}
	if lTod.SpreadOfStarts() > 1e-3 || lTod.SpreadOfStarts() < 1e-6 {
		t.Errorf("local gettimeofday spread = %v s; expected NTP-scale scatter", lTod.SpreadOfStarts())
	}
	for _, p := range []*Fig10Panel{gMono, gTod} {
		if p.SpreadOfStarts() > 1e-4 {
			t.Errorf("%s spread = %v s; global clock should align starts", p.Case, p.SpreadOfStarts())
		}
	}
	var b strings.Builder
	res.Print(&b)
	if !strings.Contains(b.String(), "global clock, clock_gettime") {
		t.Error("Print missing case rows")
	}
	b.Reset()
	if err := res.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "rank,iter,name,start,end,duration") {
		t.Error("CSV missing header")
	}
}

func TestFig5HydraVariantRuns(t *testing.T) {
	cfg := TinyFig5Config()
	cfg.NRuns = 1
	res, err := RunSyncAccuracy(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 4 {
		t.Fatalf("%d runs", len(res.Runs))
	}
	if res.Config.Job.Spec.Name != "Hydra" {
		t.Errorf("machine = %s", res.Config.Job.Spec.Name)
	}
	var b strings.Builder
	res.Print(&b)
	if !strings.Contains(b.String(), "Hydra") {
		t.Error("Print missing machine name")
	}
}

func TestFig9PrintFormat(t *testing.T) {
	cfg := TinyFig9Config()
	cfg.MSizes = []int{8}
	cfg.NRuns = 1
	cfg.NRep = 5
	res, err := RunFig9(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	res.Print(&b)
	if !strings.Contains(b.String(), "ReproMPI-RoundTime") {
		t.Errorf("Print output: %q", b.String())
	}
}
