package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"hclocksync/internal/harness"
)

// TestMain lets a test re-execute this binary as runexp itself: with
// RUNEXP_TEST_MAIN set, the process runs main() on its own arguments. That
// is also how -fabric's worker processes (which re-execute os.Executable()
// with -worker) come up under test.
func TestMain(m *testing.M) {
	if os.Getenv("RUNEXP_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// render runs one registry entry at tiny scale and returns its printed
// output followed by its CSV series, if it has one.
func render(t *testing.T, s suiteDef, eng *harness.Engine) string {
	t.Helper()
	res, err := s.run(eng, true, false, 0)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	var b strings.Builder
	res.Print(&b)
	if s.csv != "" {
		if err := res.(csvWriter).WriteCSV(&b); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}
	return b.String()
}

// TestRegistryIsDeterministic pins the determinism contract of every
// registry entry on a host where concurrency happens: with GOMAXPROCS
// forced to 2, each suite at tiny scale prints the same bytes at engine
// jobs 1 and 4, from a cold cache and from the warm cache the cold run
// left behind.
func TestRegistryIsDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, s := range registry(false, 1) {
		t.Run(s.name, func(t *testing.T) {
			var want string
			for _, jobs := range []int{1, 4} {
				dir := t.TempDir()
				for _, phase := range []string{"cold", "warm"} {
					eng := harness.New(harness.Options{Jobs: jobs, CacheDir: dir})
					got := render(t, s, eng)
					if want == "" {
						want = got
					} else if got != want {
						t.Fatalf("jobs %d, %s cache: output differs from jobs 1, cold cache:\n--- want\n%s--- got\n%s", jobs, phase, want, got)
					}
					if phase == "warm" {
						for _, m := range eng.Manifests() {
							if m.CacheHits != m.Sims {
								t.Errorf("jobs %d, warm cache: %s served %d of %d sims from cache", jobs, m.Suite, m.CacheHits, m.Sims)
							}
						}
					}
				}
			}
		})
	}
}

// runexp runs this binary as runexp with args and returns its stdout.
func runexp(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RUNEXP_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("runexp %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}

// TestFabricMatchesJobs runs the ablations suite, whose two fig2 sweeps
// both decompose into a task named fig2/drift, on worker processes. Each
// worker must execute the task the coordinator keyed, not the first task of
// that name, and the output must match the in-process run byte for byte.
func TestFabricMatchesJobs(t *testing.T) {
	args := []string{"-suite", "ablations", "-scale", "tiny", "-cache", "", "-quiet"}
	want := runexp(t, append(args, "-jobs", "2")...)
	got := runexp(t, append(args, "-fabric", "2")...)
	if !bytes.Equal(got, want) {
		t.Errorf("-fabric 2 output differs from -jobs 2:\n--- -jobs 2\n%s--- -fabric 2\n%s", want, got)
	}
}

// TestRestoreMissingLedgerFails pins -restore's contract: a ledger path
// that does not exist, or is not a ledger file, fails the run before any
// suite executes instead of silently starting a fresh sweep.
func TestRestoreMissingLedgerFails(t *testing.T) {
	dir := t.TempDir()
	for _, path := range []string{filepath.Join(dir, "nosuch.ckpt"), dir} {
		cmd := exec.Command(os.Args[0], "-suite", "table1", "-cache", "", "-quiet", "-restore", path)
		cmd.Env = append(os.Environ(), "RUNEXP_TEST_MAIN=1")
		out, err := cmd.Output()
		if err == nil {
			t.Errorf("-restore %s exited 0", path)
		}
		if len(out) != 0 {
			t.Errorf("-restore %s ran suites before failing:\n%s", path, out)
		}
	}
}
