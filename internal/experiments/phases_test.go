package experiments

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"hclocksync/internal/checkpoint"
	"hclocksync/internal/cluster"
	"hclocksync/internal/harness"
	"hclocksync/internal/mpi"
)

// memCkpt is an in-memory harness.TaskCheckpoint: what the sweep ledger
// hands a phased task, minus the file.
type memCkpt struct {
	cut  int
	snap []byte
}

func (m *memCkpt) Latest() (int, []byte, bool) { return m.cut, m.snap, m.cut > 0 }
func (m *memCkpt) Save(cut int, snap []byte) {
	m.cut, m.snap = cut, append([]byte(nil), snap...)
}

// checkPhasedResume is the acceptance property of phased execution, at the
// level of one mpirun: an uninterrupted cut run, a checkpointing run, and a
// run resumed in a "fresh process" from the last saved cut all produce the
// same result, bit for bit. wantCut is the last cut a checkpointing run
// saves.
func checkPhasedResume[R any](t *testing.T, wantCut int, run func(ckpt harness.TaskCheckpoint) (R, error)) {
	t.Helper()
	plain, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	saver := &memCkpt{}
	saved, err := run(saver)
	if err != nil {
		t.Fatal(err)
	}
	if saver.cut != wantCut || len(saver.snap) == 0 {
		t.Fatalf("last saved cut = %d (%d bytes), want %d", saver.cut, len(saver.snap), wantCut)
	}
	if !reflect.DeepEqual(saved, plain) {
		t.Fatalf("checkpointing changed the result:\n got %+v\nwant %+v", saved, plain)
	}
	// "Kill" after the last cut: a fresh invocation sees only the saved
	// snapshot and must replay the rest to the same result.
	resumed, err := run(saver)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, plain) {
		t.Fatalf("resumed run diverged:\n got %+v\nwant %+v", resumed, plain)
	}
}

func TestSyncAccuracyPhasedResumeMatchesUninterrupted(t *testing.T) {
	cfg := TinyFig3Config()
	check := cfg.Check
	check.WaitTime = cfg.WaitTime
	for _, alg := range cfg.Algorithms[:2] { // HCA and HCA2 keep this fast
		t.Run(alg.Name(), func(t *testing.T) {
			seed := harness.DeriveSeed("syncaccuracy", "run0", cfg.Job.Seed)
			checkPhasedResume(t, 1, func(ckpt harness.TaskCheckpoint) (SyncRun, error) {
				return syncAccuracyRun(cfg.Job, alg, 0, seed, cfg.WaitTime, check, true, ckpt)
			})
		})
	}
}

// fig7 saves a cut after every finished message size but the last, so the
// resume replays from mid-cell.
func TestFig7PhasedResumeMatchesUninterrupted(t *testing.T) {
	cfg := TinyFig7Config()
	cfg.Cut = true
	seed := harness.DeriveSeed("fig7", "cell", cfg.Job.Seed)
	checkPhasedResume(t, len(cfg.MSizes)-1, func(ckpt harness.TaskCheckpoint) ([]Fig7Row, error) {
		return fig7Cell(cfg, cfg.Suites[0], cfg.Barriers[0], seed, ckpt)
	})
}

// Under message drops and rank crashes the injector state rides the
// snapshot.
func TestFaultsPhasedResumeMatchesUninterrupted(t *testing.T) {
	cfg := TinyFaultsConfig()
	for _, cell := range []struct {
		drop    float64
		crashes int
	}{{0, 0}, {0.05, 1}} {
		t.Run(fmt.Sprintf("drop%g_crash%d", cell.drop, cell.crashes), func(t *testing.T) {
			seed := harness.DeriveSeed("faults", fmt.Sprintf("drop%g/crash%d/run0", cell.drop, cell.crashes), cfg.Job.Seed)
			checkPhasedResume(t, 1, func(ckpt harness.TaskCheckpoint) (FaultsRun, error) {
				row, err := faultsRun(cfg, cell.drop, cell.crashes, 0, seed, ckpt)
				if err == nil && cell.crashes > 0 && row.Survivors >= cfg.Job.NProcs {
					err = fmt.Errorf("crash cell lost no ranks (%d/%d survivors) — fault path not exercised", row.Survivors, cfg.Job.NProcs)
				}
				return row, err
			})
		})
	}
}

// fixedCkpt offers one fixed resume point, whatever it holds.
type fixedCkpt struct {
	cut  int
	snap []byte
}

func (f fixedCkpt) Latest() (int, []byte, bool) { return f.cut, f.snap, true }
func (f fixedCkpt) Save(int, []byte)            {}

// runPhases is the only decoder of cut payloads, so it owns the range and
// shape checks: every malformed resume point, and a state that cannot be
// encoded at save time, must come back as an error — never a panic and
// never a silently wrong run.
func TestRunPhasesRejectsMalformedCuts(t *testing.T) {
	cfg := mpi.Config{Spec: cluster.TestBox(), NProcs: 4, Seed: 5}
	type state struct{ V []float64 }
	phases := func(st *state) []func(*mpi.Proc) {
		return []func(*mpi.Proc){
			func(p *mpi.Proc) { p.World().Barrier(); st.V[p.Rank()] = p.TrueNow() },
			func(p *mpi.Proc) { p.World().Barrier(); st.V[p.Rank()] += p.TrueNow() },
		}
	}
	fresh := func() *state { return &state{V: make([]float64, cfg.NProcs)} }

	// A well-formed cut-1 snapshot to mutate.
	saver := &memCkpt{}
	st := fresh()
	if err := runPhases(cfg, true, saver, st, phases(st)...); err != nil {
		t.Fatal(err)
	}
	good, err := checkpoint.DecodeSession(saver.snap)
	if err != nil {
		t.Fatal(err)
	}
	withApp := func(app ...[]byte) []byte {
		s := *good
		s.App = app
		return checkpoint.EncodeSession(&s)
	}

	cases := []struct {
		name string
		ckpt harness.TaskCheckpoint
		want string
	}{
		{"cut0", fixedCkpt{0, saver.snap}, "out of range"},
		{"cut_past_last_phase", fixedCkpt{2, saver.snap}, "out of range"},
		{"cut_mismatch", fixedCkpt{1, func() []byte { s := *good; s.Cut = 3; return checkpoint.EncodeSession(&s) }()}, "taken at cut 3"},
		{"corrupt_snapshot", fixedCkpt{1, saver.snap[:len(saver.snap)/2]}, "resuming from cut 1"},
		{"two_blobs", fixedCkpt{1, withApp(good.App[0], good.App[0])}, "2 blobs"},
		{"corrupt_json", fixedCkpt{1, withApp([]byte(`{"V":[1,2`))}, "decoding state"},
		{"short_state", fixedCkpt{1, withApp([]byte(`{"V":[1]}`))}, "index out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := fresh()
			err := runPhases(cfg, true, c.ckpt, st, phases(st)...)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, c.want)
			}
		})
	}

	t.Run("nan_at_save", func(t *testing.T) {
		st := fresh()
		ph := phases(st)
		ph[0] = func(p *mpi.Proc) { st.V[p.Rank()] = math.NaN() }
		err := runPhases(cfg, true, &memCkpt{}, st, ph...)
		if err == nil || !strings.Contains(err.Error(), "encoding cut 1 state") {
			t.Fatalf("err = %v, want a state-encoding error", err)
		}
	})
}

// A whole cut-mode suite replayed from its ledger renders byte-identical
// output with every task served as a checkpoint hit.
func TestSyncAccuracySuiteResumesFromLedger(t *testing.T) {
	cfg := TinyFig3Config()
	cfg.Cut = true
	cfg.NRuns = 1
	path := t.TempDir() + "/fig3.ckpt"

	render := func(eng *harness.Engine) string {
		res, err := RunSyncAccuracy(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		res.Print(&b)
		return b.String()
	}

	ck := harness.NewCheckpointer(path, 1, "ledger-test")
	if err := ck.Load(); err != nil {
		t.Fatal(err)
	}
	first := render(harness.New(harness.Options{Jobs: 4, Version: "ledger-test", Checkpoint: ck}))
	if err := ck.Flush(); err != nil {
		t.Fatal(err)
	}

	ck2 := harness.NewCheckpointer(path, 1, "ledger-test")
	if err := ck2.Load(); err != nil {
		t.Fatal(err)
	}
	eng2 := harness.New(harness.Options{Jobs: 4, Version: "ledger-test", Checkpoint: ck2})
	second := render(eng2)
	if second != first {
		t.Fatal("ledger-resumed suite output differs from the original run")
	}
	m := eng2.Manifests()[0]
	if m.CheckpointHits != m.Sims || m.Sims == 0 {
		t.Fatalf("resume recomputed work: %d/%d checkpoint hits", m.CheckpointHits, m.Sims)
	}
}

// Cut mode must not collide with back-to-back results in the cache: the
// two configurations key differently (and false keeps the legacy key).
func TestSyncTaskCutChangesCacheKey(t *testing.T) {
	cfg := TinyFig3Config()
	base := syncTask{Job: cfg.Job, Alg: "a", WaitTime: 2, Check: "c", Run: 0}
	cut := base
	cut.Cut = true
	k1, err := harness.CacheKey("v", "fig3", "t", 1, base)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := harness.CacheKey("v", "fig3", "t", 1, cut)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("Cut flag does not separate cache keys")
	}
}
