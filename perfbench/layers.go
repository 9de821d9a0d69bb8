package main

import (
	"path"
	"strings"
)

// repoPrefix marks the functions of the program under test. The
// benchmark's own functions live in package main and never match.
const repoPrefix = "hclocksync/"

// Self-time buckets. Every profile sample lands in exactly one, so their
// sum is the profile's total: the layer of the innermost repo frame, with
// the runtime frames beneath it (allocation, write barriers, GC assists)
// charged to that layer, except that scheduler and channel frames beneath
// a sim frame are the fiber baton handoff. A sample with no repo frame is
// garbage collection or unattributed.
const (
	simSelf       = "sim.self_s"
	simHeap       = "sim.heap_s"
	simSpawn      = "sim.spawn_s"
	simHandoff    = "sim.handoff_s"
	mpiP2P        = "mpi.p2p_self_s"
	mpiColl       = "mpi.coll_self_s"
	mpiOther      = "mpi.other_self_s"
	clocksyncSelf = "clocksync.self_s"
	statsSelf     = "stats.self_s"
	clusterSelf   = "cluster.self_s"
	benchSelf     = "bench.self_s"
	scaleSelf     = "scale.self_s"
	expSelf       = "experiments.self_s"
	harnessSelf   = "harness.self_s"
	repoOther     = "repo_other.self_s"
	runtimeGC     = "runtime.gc_s"
	unattributed  = "unattributed_s"
)

// selfBuckets lists the partition in print order.
var selfBuckets = []string{
	simSelf, simHeap, simSpawn, simHandoff,
	mpiP2P, mpiColl, mpiOther,
	clocksyncSelf, statsSelf, clusterSelf, benchSelf, scaleSelf,
	expSelf, harnessSelf, repoOther, runtimeGC, unattributed,
}

// Inclusive times, outside the partition.
const (
	offsetIncl = "clocksync.offset_incl_s"
	fitIncl    = "clocksync.fit_incl_s"
	// schedUnattr is the part of unattributed_s spent in the scheduler
	// on its own stack (a parked fiber's switch has no user frames).
	schedUnattr = "unattributed.sched_s"
)

// layerTable is the attribution of one CPU profile, in seconds.
type layerTable struct {
	Self   map[string]float64 `json:"self_s"`
	Incl   map[string]float64 `json:"inclusive_s"`
	TotalS float64            `json:"total_s"`
}

// attribute charges every sample of a CPU profile to a layer.
func attribute(stacks []stack) layerTable {
	t := layerTable{Self: map[string]float64{}, Incl: map[string]float64{}}
	for _, b := range selfBuckets {
		t.Self[b] = 0
	}
	for _, b := range []string{offsetIncl, fitIncl, schedUnattr} {
		t.Incl[b] = 0
	}
	for _, s := range stacks {
		sec := float64(s.Nanos) / 1e9
		t.TotalS += sec
		b, incl := classify(s.Frames)
		t.Self[b] += sec
		for _, name := range incl {
			t.Incl[name] += sec
		}
	}
	return t
}

// classify returns the self bucket of one sample (frames leaf first) and
// the inclusive metrics it also counts toward.
func classify(frames []frame) (string, []string) {
	var incl []string
	underClocksync := false
	offset, fit := false, false
	// Walk root to leaf so "a clocksync frame is above this one" is known.
	for i := len(frames) - 1; i >= 0; i-- {
		pkg, fn := splitFunc(frames[i].Func)
		switch pkg {
		case repoPrefix + "internal/clocksync":
			underClocksync = true
			if strings.Contains(fn, "MeasureOffset") {
				offset = true
			}
			if isFitFunc(fn) {
				fit = true
			}
		case repoPrefix + "internal/stats":
			if underClocksync && strings.HasPrefix(fn, "Fit") {
				fit = true
			}
		}
	}
	if offset {
		incl = append(incl, offsetIncl)
	}
	if fit {
		incl = append(incl, fitIncl)
	}

	for i, f := range frames {
		if !strings.HasPrefix(f.Func, repoPrefix) {
			continue
		}
		pkg, fn := splitFunc(f.Func)
		if pkg == repoPrefix+"internal/sim" && anyFrame(frames[:i], isSchedFunc) {
			return simHandoff, incl
		}
		return repoLayer(pkg, fn, f.File), incl
	}
	if anyFrame(frames, isGCFunc) {
		return runtimeGC, incl
	}
	if anyFrame(frames, isSchedFunc) {
		incl = append(incl, schedUnattr)
	}
	return unattributed, incl
}

// repoLayer maps a repo function to its self bucket.
func repoLayer(pkg, fn, file string) string {
	switch strings.TrimPrefix(pkg, repoPrefix+"internal/") {
	case "sim":
		switch {
		case isHeapFunc(fn):
			return simHeap
		case fn == "(*Env).Spawn" || fn == "(*Env).SpawnStep" || fn == "(*Env).SpawnSteps":
			return simSpawn
		}
		return simSelf
	case "mpi":
		switch path.Base(file) {
		case "pt2pt.go", "nonblocking.go", "reliable.go":
			return mpiP2P
		case "barrier.go", "reduce.go", "bcast.go", "alltoall.go", "comm.go":
			return mpiColl
		}
		return mpiOther
	case "clocksync":
		return clocksyncSelf
	case "stats":
		return statsSelf
	case "cluster":
		return clusterSelf
	case "bench":
		return benchSelf
	case "scale":
		return scaleSelf
	case "experiments":
		return expSelf
	case "harness":
		return harnessSelf
	}
	return repoOther
}

// splitFunc splits a runtime function name such as
// "hclocksync/internal/sim.(*eventQueue).push" into its package path and
// the rest. Type arguments ("Run[...]") may hold dots and slashes of their
// own, so only the part before the first '[' is searched.
func splitFunc(name string) (pkg, fn string) {
	head := name
	if i := strings.IndexByte(head, '['); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return "", name
	}
	cut := slash + 1 + dot
	return name[:cut], name[cut+1:]
}

func anyFrame(frames []frame, pred func(string) bool) bool {
	for _, f := range frames {
		if pred(f.Func) {
			return true
		}
	}
	return false
}

// isHeapFunc matches the kernel's two priority queues and their orderings.
func isHeapFunc(fn string) bool {
	for _, p := range []string{"(*eventQueue).", "(*depositQueue).", "event.", "deposit."} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// isFitFunc matches clocksync's drift-model fitting: the two sample fits
// (their helpers run beneath them) and the robust quorum's fit aggregation.
func isFitFunc(fn string) bool {
	switch fn {
	case "FitOffsetSamples", "FitOffsetSamplesRobust", "aggregateFits":
		return true
	}
	return false
}

// schedFuncs are the Go scheduler and channel functions a fiber's baton
// handoff runs through.
var schedFuncs = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.selectnb",
	"runtime.send", "runtime.recv", "runtime.gopark", "runtime.goready", "runtime.ready",
	"runtime.park_m", "runtime.schedule", "runtime.findRunnable", "runtime.mcall",
	"runtime.execute", "runtime.gogo", "runtime.gosched",
	"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.handoffp",
	"runtime.notewakeup", "runtime.notesleep", "runtime.futex", "runtime.runq",
	"runtime.stealWork", "runtime.resetspinning", "runtime.casgstatus",
}

func isSchedFunc(name string) bool {
	for _, p := range schedFuncs {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// gcFuncs are the collector's background and phase functions.
var gcFuncs = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.markroot", "runtime.scanobject", "runtime.scanstack",
	"runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge", "runtime.gcAssistAlloc",
}

func isGCFunc(name string) bool {
	for _, p := range gcFuncs {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
