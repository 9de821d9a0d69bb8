package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"hclocksync/internal/harness"
)

// The simulation kernel and MPI layer carry an observable determinism
// contract: for a fixed seed, an experiment's rendered output is a fixed
// byte sequence, at any -jobs setting and any GOMAXPROCS. The hashes in
// testdata/golden_hashes.json pin fig3, fig7, the faults and clockfaults
// suites, and the step-proc scale suite against silent drift: any change to the (t, seq)
// tie-break, an RNG draw order, or message matching shows up here as a
// hash mismatch. The fig3/fig7 hashes are additionally the zero-plan
// byte-identity guarantee: they predate both the zero-allocation kernel
// rewrite (PR 3) and the clock-fault subsystem (PR 4) and still match,
// proving a nil/zero fault plan leaves the simulation untouched.
//
// Regenerate (only when an output change is intended and understood) with:
//
//	go test ./internal/experiments -run TestGoldenOutputs -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_hashes.json from the current build")

type goldenSuite struct {
	name   string
	render func(eng *harness.Engine) (string, error)
}

func goldenSuites() []goldenSuite {
	return []goldenSuite{
		{"fig3", func(eng *harness.Engine) (string, error) {
			res, err := RunSyncAccuracy(eng, TinyFig3Config())
			if err != nil {
				return "", err
			}
			var b strings.Builder
			res.Print(&b)
			return b.String(), nil
		}},
		{"fig3cut", func(eng *harness.Engine) (string, error) {
			// The cut (checkpointable) fig3 schedule. It differs from the
			// back-to-back one — the accuracy phase respawns every rank at
			// the cut's global virtual time — so it pins its own hash; the
			// plain fig3 hash proves the phase mechanism left the
			// back-to-back schedule untouched.
			cfg := TinyFig3Config()
			cfg.Cut = true
			res, err := RunSyncAccuracy(eng, cfg)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			res.Print(&b)
			return b.String(), nil
		}},
		{"fig7", func(eng *harness.Engine) (string, error) {
			res, err := RunFig7(eng, TinyFig7Config())
			if err != nil {
				return "", err
			}
			var b strings.Builder
			res.Print(&b)
			return b.String(), nil
		}},
		{"fig7cut", func(eng *harness.Engine) (string, error) {
			// The cut (checkpointable) fig7 schedule: one session phase per
			// message size. As with fig3cut, it differs from the
			// back-to-back cell, so it pins its own hash while the plain
			// fig7 hash proves the phase mechanism left the back-to-back
			// schedule untouched.
			cfg := TinyFig7Config()
			cfg.Cut = true
			res, err := RunFig7(eng, cfg)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			res.Print(&b)
			return b.String(), nil
		}},
		{"faults", func(eng *harness.Engine) (string, error) {
			// Faults has one schedule: it always runs cut, since its
			// second phase does no communication and the cut moves no
			// result.
			res, err := RunFaults(eng, TinyFaultsConfig())
			if err != nil {
				return "", err
			}
			var b strings.Builder
			res.Print(&b)
			return b.String(), nil
		}},
		{"clockfaults", func(eng *harness.Engine) (string, error) {
			res, err := RunClockFaults(eng, TinyClockFaultsConfig())
			if err != nil {
				return "", err
			}
			var b strings.Builder
			res.Print(&b)
			return b.String(), nil
		}},
		{"scale", func(eng *harness.Engine) (string, error) {
			// The step-proc synthetic sweeps: the only suite whose ranks are
			// goroutine-free state machines end to end. Its stats are pure
			// virtual-time quantities, so the byte-identity contract holds
			// for the new representation exactly as for the fiber suites.
			// The sweeps run 8-way sharded; rendering at 1 and 4 kernel
			// dispatch workers extends the pinned contract to parallel
			// dispatch: the -workers knob must never move a byte.
			var ref string
			for _, w := range []int{1, 4} {
				cfg := TinyScaleConfig()
				cfg.Workers = w
				res, err := RunScale(eng, cfg)
				if err != nil {
					return "", err
				}
				var b strings.Builder
				res.Print(&b)
				if ref == "" {
					ref = b.String()
				} else if b.String() != ref {
					return "", fmt.Errorf("scale output at workers=4 differs from workers=1")
				}
			}
			return ref, nil
		}},
	}
}

const goldenPath = "testdata/golden_hashes.json"

func TestGoldenOutputs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	got := map[string]string{}
	for _, s := range goldenSuites() {
		// Every (jobs, GOMAXPROCS) combination must produce one identical
		// byte stream; record the suite under a single key.
		var ref string
		for _, c := range []struct{ jobs, procs int }{{1, 1}, {1, 8}, {8, 1}, {8, 8}} {
			runtime.GOMAXPROCS(c.procs)
			out, err := s.render(harness.New(harness.Options{Jobs: c.jobs}))
			if err != nil {
				t.Fatalf("%s at jobs=%d GOMAXPROCS=%d: %v", s.name, c.jobs, c.procs, err)
			}
			if ref == "" {
				ref = out
			} else if out != ref {
				t.Errorf("%s: output at jobs=%d GOMAXPROCS=%d differs from jobs=1 GOMAXPROCS=1", s.name, c.jobs, c.procs)
			}
		}
		sum := sha256.Sum256([]byte(ref))
		got[s.name] = hex.EncodeToString(sum[:])
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		var names []string
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("{\n")
		for i, n := range names {
			comma := ","
			if i == len(names)-1 {
				comma = ""
			}
			fmt.Fprintf(&b, "  %q: %q%s\n", n, got[n], comma)
		}
		b.WriteString("}\n")
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden hashes (run with -update-golden to create): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	for name, h := range got {
		if want[name] == "" {
			t.Errorf("%s: no golden hash recorded (run with -update-golden)", name)
			continue
		}
		if h != want[name] {
			t.Errorf("%s: output hash %s != golden %s — the kernel's observable determinism contract drifted", name, h, want[name])
		}
	}
}
