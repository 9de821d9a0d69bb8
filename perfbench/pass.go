package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"syscall"
	"time"

	"hclocksync/internal/harness"
)

// A pass is one sweep of a workload in a fresh child process, so each
// pass pays process start-up, runtime init and engine set-up once, and its
// CPU time and peak RSS are its own.

// passSpec says how to run one pass.
type passSpec struct {
	workload workload
	seed     int64
	threads  int    // GOMAXPROCS; engine jobs × kernel workers
	profile  string // CPU profile path for a traced pass, else empty
	// setupOnly ends the child as its first simulation task starts: a
	// probe of set-up time alone, cheap enough to repeat many times.
	setupOnly bool
	// windows runs one simulation at a time on threads kernel workers
	// under lookahead windows, in place of threads simulations at once on
	// one worker each.
	windows bool
	smoke   bool // test-sized sweep; only the benchmark's tests set it
}

// span is one simulation task as the engine reported it.
type span struct {
	Suite  string  `json:"suite"`
	Task   string  `json:"task"`
	StartS float64 `json:"start_s"` // from the first task start
	WallS  float64 `json:"wall_s"`
	Error  string  `json:"error,omitempty"`
}

// passReport is what a child sends back, as the last line of its stdout.
type passReport struct {
	FirstTaskUnixNS int64   `json:"first_task_unix_ns"`
	WallS           float64 `json:"wall_s"` // first task start to sweep end
	CPUS            float64 `json:"cpu_s"`  // over the same interval
	MaxRSSKiB       int64   `json:"max_rss_kib"`
	Sims            int     `json:"sims"`
	Failed          int     `json:"failed"`
	Digest          string  `json:"digest"`
	Events          uint64  `json:"events"`
	AllocMiB        float64 `json:"alloc_mib"`
	GCCycles        uint32  `json:"gc_cycles"`
	Spans           []span  `json:"spans,omitempty"`
	Err             string  `json:"error,omitempty"`

	// Filled in by the parent.
	SetupS float64 `json:"setup_s"` // child start to first task start
	TotalS float64 `json:"total_s"` // child start to child exit
	StealS float64 `json:"steal_s"` // host steal time while the child ran
}

// recorder is the harness.Reporter a pass runs under: it marks the first
// task start and, for a traced pass, keeps every task span in memory.
type recorder struct {
	keepSpans bool
	onStart   func(t0 time.Time) // called once, at the first task start

	mu      sync.Mutex
	started bool
	t0      time.Time
	cpu0    float64
	failed  int
	spans   []span
}

func (r *recorder) Start(string, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.started {
		r.started, r.t0, r.cpu0 = true, time.Now(), cpuSeconds()
		if r.onStart != nil {
			r.onStart(r.t0)
		}
	}
}

func (r *recorder) Done(suite string, rec harness.TaskRecord, _, _ int, _ time.Duration) {
	end := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec.Error != "" {
		r.failed++
	}
	if r.keepSpans && !rec.Skipped {
		r.spans = append(r.spans, span{
			Suite: suite, Task: rec.Name,
			StartS: end.Sub(r.t0).Seconds() - rec.WallSec, WallS: rec.WallSec,
			Error: rec.Error,
		})
	}
}

func (r *recorder) Finish(*harness.Manifest) {}

// runPassChild is the child side: one sweep with the result cache off,
// reported on stdout.
func runPassChild(spec passSpec) passReport {
	jobs, kw := spec.threads, kernelWorkers
	if spec.windows {
		jobs, kw = 1, spec.threads
	}
	rec := &recorder{keepSpans: spec.profile != ""}
	if spec.setupOnly {
		rec.onStart = func(t0 time.Time) {
			// Report and stop here: nothing after set-up is measured.
			_ = json.NewEncoder(os.Stdout).Encode(passReport{FirstTaskUnixNS: t0.UnixNano()})
			os.Exit(0)
		}
	}
	eng := harness.New(harness.Options{Jobs: jobs, Reporter: rec})

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var prof *os.File
	if spec.profile != "" {
		f, err := os.Create(spec.profile)
		if err != nil {
			return passReport{Err: err.Error()}
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return passReport{Err: err.Error()}
		}
		prof = f
	}
	sw, err := spec.workload.run(eng, spec.seed, kw, spec.smoke)
	end, cpu1 := time.Now(), cpuSeconds()
	if prof != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("writing CPU profile: %w", cerr)
		}
	}
	runtime.ReadMemStats(&ms1)

	rep := passReport{
		MaxRSSKiB: maxRSSKiB(),
		Events:    sw.events,
		AllocMiB:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
		GCCycles:  ms1.NumGC - ms0.NumGC,
	}
	for _, m := range eng.Manifests() {
		rep.Sims += m.Sims
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rep.Failed, rep.Spans = rec.failed, rec.spans
	if rec.started {
		rep.FirstTaskUnixNS = rec.t0.UnixNano()
		rep.WallS = end.Sub(rec.t0).Seconds()
		rep.CPUS = cpu1 - rec.cpu0
	}
	if err != nil {
		// The sweep aborted: none of its simulations produced a usable
		// result.
		rep.Err, rep.Failed = err.Error(), rep.Sims
		return rep
	}
	sum := sha256.Sum256(sw.out)
	rep.Digest = hex.EncodeToString(sum[:])
	return rep
}

// runPass starts a child for spec, waits for it, and returns its report.
func runPass(ctx context.Context, exe string, spec passSpec) (passReport, error) {
	args := []string{"-pass",
		"-workload", spec.workload.name,
		"-seed", strconv.FormatInt(spec.seed, 10),
		"-threads", strconv.Itoa(spec.threads)}
	if spec.profile != "" {
		args = append(args, "-profile", spec.profile)
	}
	if spec.setupOnly {
		args = append(args, "-setup-only")
	}
	if spec.windows {
		args = append(args, "-windows")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(spec.threads))
	cmd.Stderr = os.Stderr
	// The child dies with the parent, so no pass outlives the benchmark.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout = &out
	t0, steal0 := time.Now(), stealSeconds()
	err := cmd.Run()
	total, steal := time.Since(t0).Seconds(), stealSeconds()-steal0
	if err != nil {
		return passReport{}, fmt.Errorf("%s pass (seed %d, %d threads): %w", spec.workload.name, spec.seed, spec.threads, err)
	}
	var rep passReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return passReport{}, fmt.Errorf("%s pass: reading its report: %w", spec.workload.name, err)
	}
	rep.TotalS, rep.StealS = total, steal
	if rep.FirstTaskUnixNS != 0 {
		rep.SetupS = time.Unix(0, rep.FirstTaskUnixNS).Sub(t0).Seconds()
	}
	return rep, nil
}
