package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostContext is printed with every result: the conditions a number was
// measured under.
type hostContext struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Jobs       int    `json:"jobs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
}

func (h hostContext) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d jobs=%d workers=%d go=%s commit=%s workload=%s seed=%d",
		h.CPU, h.NProc, h.GOMAXPROCS, h.Jobs, h.Workers, h.GoVersion, h.Commit, h.Workload, h.Seed)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the code under test: the revision the binary was built
// from, or "unknown" when the build saw no git checkout (an exported
// source tree).
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	if rev == "" {
		return "unknown"
	}
	return rev + dirty
}

// newHostContext describes a run on threads threads: jobs = threads
// simulations at once, each on kernelWorkers kernel workers.
func newHostContext(workload string, seed int64, threads int) hostContext {
	return hostContext{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: threads,
		Jobs:       threads,
		Workers:    kernelWorkers,
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Workload:   workload,
		Seed:       seed,
	}
}

// cpuSeconds is the user+system CPU time this process has consumed.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// maxRSSKiB is this process's peak resident set size.
func maxRSSKiB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Maxrss) // kilobytes on Linux
}

// stealSeconds is the CPU time the hypervisor has given to other guests,
// summed over all CPUs (the steal column of /proc/stat); 0 where the
// kernel does not report it. Its growth over a pass is host noise.
func stealSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

func tv(t syscall.Timeval) float64 {
	return time.Duration(t.Nano()).Seconds()
}
