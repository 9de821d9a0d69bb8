package main

import (
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"testing"
	"time"
)

func fr(fn string) frame { return frame{Func: fn} }

func frFile(fn, file string) frame { return frame{Func: fn, File: file} }

// handStacks is a hand-built profile: one stack per attribution rule,
// frames leaf first, each worth a distinct number of milliseconds so a
// misfiled sample shows in the sums.
var handStacks = []struct {
	name   string
	frames []frame
	ms     int64
	self   string
	incl   []string
}{
	{"queue method", []frame{
		fr("hclocksync/internal/sim.(*eventQueue).siftDown"),
		fr("hclocksync/internal/sim.(*Env).dispatch"),
	}, 1, simHeap, nil},
	{"event ordering", []frame{
		fr("hclocksync/internal/sim.deposit.before"),
		fr("hclocksync/internal/sim.(*depositQueue).push"),
	}, 2, simHeap, nil},
	{"allocation under SpawnSteps", []frame{
		fr("runtime.mallocgc"),
		fr("hclocksync/internal/sim.(*Env).SpawnSteps"),
		fr("hclocksync/internal/scale.RunBarrier"),
	}, 4, simSpawn, nil},
	{"fiber baton send", []frame{
		fr("runtime.futex"),
		fr("runtime.goready"),
		fr("runtime.chansend1"),
		fr("hclocksync/internal/sim.(*Env).dispatch"),
		fr("hclocksync/internal/sim.(*Proc).block"),
	}, 8, simHandoff, nil},
	{"sim self", []frame{
		fr("hclocksync/internal/sim.(*Env).deliverDeposit"),
	}, 16, simSelf, nil},
	{"p2p under MeasureOffset", []frame{
		frFile("hclocksync/internal/mpi.(*Comm).Recv", "/src/internal/mpi/pt2pt.go"),
		fr("hclocksync/internal/clocksync.SKaMPIOffset.MeasureOffset"),
		fr("hclocksync/internal/clocksync.LearnClockModel"),
	}, 32, mpiP2P, []string{offsetIncl}},
	{"collective", []frame{
		frFile("hclocksync/internal/mpi.(*Comm).Barrier", "/src/internal/mpi/barrier.go"),
		fr("hclocksync/internal/bench.RunSuite"),
	}, 64, mpiColl, nil},
	{"channel wait under mpi, not sim", []frame{
		fr("runtime.chanrecv1"),
		frFile("hclocksync/internal/mpi.(*Session).run", "/src/internal/mpi/session.go"),
	}, 128, mpiOther, nil},
	{"fit under clocksync", []frame{
		fr("hclocksync/internal/stats.FitLinear"),
		fr("hclocksync/internal/clocksync.LearnClockModel"),
	}, 256, statsSelf, []string{fitIncl}},
	{"fit outside clocksync", []frame{
		fr("hclocksync/internal/stats.FitLinear"),
		fr("hclocksync/internal/experiments.RunFig2"),
	}, 512, statsSelf, nil},
	{"GC assist under a repo frame", []frame{
		fr("runtime.gcAssistAlloc"),
		fr("runtime.mallocgc"),
		fr("hclocksync/internal/cluster.(*HWClock).Read"),
	}, 1024, clusterSelf, nil},
	{"generic harness frame", []frame{
		fr("hclocksync/internal/harness.Run[go.shape.struct { hclocksync/internal/experiments.x int }].func1"),
	}, 2048, harnessSelf, nil},
	{"other repo package", []frame{
		fr("hclocksync/internal/detrand.(*Source).Uint64"),
		fr("hclocksync/internal/clocksync.robustStep"),
	}, 4096, repoOther, nil},
	{"background GC", []frame{
		fr("runtime.scanobject"),
		fr("runtime.gcDrain"),
		fr("runtime.gcBgMarkWorker"),
	}, 8192, runtimeGC, nil},
	{"scheduler on its own stack", []frame{
		fr("runtime.findRunnable"),
		fr("runtime.schedule"),
		fr("runtime.park_m"),
		fr("runtime.mcall"),
	}, 16384, unattributed, []string{schedUnattr}},
	{"benchmark's own frame", []frame{
		fr("crypto/sha256.block"),
		fr("main.runPassChild"),
	}, 32768, unattributed, nil},
}

func TestClassifyHandBuiltStacks(t *testing.T) {
	for _, c := range handStacks {
		self, incl := classify(c.frames)
		if self != c.self || !slices.Equal(incl, c.incl) {
			t.Errorf("%s: got (%s, %v), want (%s, %v)", c.name, self, incl, c.self, c.incl)
		}
	}
}

func TestAttributeAccountsForEverySample(t *testing.T) {
	var stacks []stack
	want := map[string]float64{}
	var total float64
	for _, c := range handStacks {
		stacks = append(stacks, stack{Frames: c.frames, Nanos: c.ms * 1e6})
		want[c.self] += float64(c.ms) / 1e3
		total += float64(c.ms) / 1e3
	}
	tab := attribute(stacks)
	var sum float64
	for _, b := range selfBuckets {
		if math.Abs(tab.Self[b]-want[b]) > 1e-9 {
			t.Errorf("%s = %g, want %g", b, tab.Self[b], want[b])
		}
		sum += tab.Self[b]
	}
	if len(tab.Self) != len(selfBuckets) {
		t.Errorf("self buckets %v are not exactly %v", tab.Self, selfBuckets)
	}
	if math.Abs(sum-total) > 1e-9 || math.Abs(tab.TotalS-total) > 1e-9 {
		t.Errorf("self times sum to %g and total is %g, want both %g", sum, tab.TotalS, total)
	}
	if got := tab.Incl[offsetIncl]; math.Abs(got-0.032) > 1e-9 {
		t.Errorf("offset inclusive = %g, want 0.032", got)
	}
	if got := tab.Incl[fitIncl]; math.Abs(got-0.256) > 1e-9 {
		t.Errorf("fit inclusive = %g, want 0.256", got)
	}
}

func TestSplitFunc(t *testing.T) {
	cases := []struct{ in, pkg, fn string }{
		{"hclocksync/internal/sim.(*eventQueue).push", "hclocksync/internal/sim", "(*eventQueue).push"},
		{"hclocksync/internal/harness.Run[go.shape.struct { a/b.c int }].func1", "hclocksync/internal/harness", "Run[go.shape.struct { a/b.c int }].func1"},
		{"runtime.mallocgc", "runtime", "mallocgc"},
		{"main.main", "main", "main"},
		{"nodot", "", "nodot"},
	}
	for _, c := range cases {
		if pkg, fn := splitFunc(c.in); pkg != c.pkg || fn != c.fn {
			t.Errorf("splitFunc(%q) = %q, %q; want %q, %q", c.in, pkg, fn, c.pkg, c.fn)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

// TestReadProfileDecodesRuntimeProfiles decodes a profile the Go runtime
// wrote, so the hand-written decoder is checked against the real format.
func TestReadProfileDecodesRuntimeProfiles(t *testing.T) {
	path := t.TempDir() + "/cpu.pprof"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	stacks, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range stacks {
		total += s.Nanos
		for _, fr := range s.Frames {
			if fr.Func == "hclocksync/perfbench.spin" || fr.Func == "main.spin" {
				inSpin += s.Nanos
				if fr.File == "" {
					t.Errorf("frame %s has no file", fr.Func)
				}
				break
			}
		}
	}
	if total == 0 || inSpin < total/2 {
		t.Fatalf("decoded %d stacks, %d ns in total, %d ns under spin; want most of it under spin", len(stacks), total, inSpin)
	}
}
