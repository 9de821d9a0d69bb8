package harness

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Task is one independent unit of work in a suite — in this repository,
// one simulated mpirun. Run must be a pure function of the seed it is
// handed (plus the configuration captured in its closure): tasks execute
// concurrently and their results are cached, so hidden inputs would break
// both determinism and cache correctness.
type Task[R any] struct {
	// Name identifies the task inside the suite's manifest; it must be
	// unique within the suite. Empty defaults to "job<index>".
	Name string
	// SeedKey feeds DeriveSeed together with the suite name and base seed.
	// Empty defaults to "job<index>". Tasks sharing a SeedKey receive the
	// same seed — the paired-replication design of Figs. 3–6, where every
	// algorithm of run r must meet the same machine instantiation.
	SeedKey string
	// Config is the JSON-serializable description of everything that
	// determines the result besides the seed; it is the cache-key material
	// and is echoed into the manifest. An unserializable config is an
	// error; an unserializable *result* merely skips the cache.
	Config any
	// Run executes the task with the derived seed. The result must be a
	// JSON-round-trippable value for caching to engage.
	Run func(seed int64) (R, error)
	// RunPhased, when non-nil, is used instead of Run. It receives the
	// engine's per-task checkpoint handle (nil when the engine has no
	// checkpointer) and is expected to save a cut snapshot at each phase
	// boundary and resume from Latest after a crash.
	RunPhased func(seed int64, ckpt TaskCheckpoint) (R, error)
}

// Run executes tasks through e's worker pool and returns their results in
// task order — never in completion order. Each task's seed derives from
// (suite, SeedKey, baseSeed) via DeriveSeed. On error, the first failing
// task (by index, not by completion time) is reported: once task i fails,
// the engine skips the not-yet-begun tasks after i but still runs those
// before it, so which failure is reported never depends on scheduling.
func Run[R any](e *Engine, suite string, baseSeed int64, tasks []Task[R]) ([]R, error) {
	e = e.get()
	n := len(tasks)
	results := make([]R, n)
	errs := make([]error, n)
	recs := make([]TaskRecord, n)

	started := time.Now() //synclint:wallclock -- wall-time telemetry for the manifest; never hashed
	e.reporter.Start(suite, n)

	// firstFail is the lowest index of a failed task so far (n if none).
	var firstFail atomic.Int64
	firstFail.Store(int64(n))
	fail := func(i int) {
		for {
			cur := firstFail.Load()
			if int64(i) >= cur || firstFail.CompareAndSwap(cur, int64(i)) {
				return
			}
		}
	}
	var done atomic.Int64
	runOne := func(i int) {
		t := tasks[i]
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("job%d", i)
		}
		seedKey := t.SeedKey
		if seedKey == "" {
			seedKey = fmt.Sprintf("job%d", i)
		}
		seed := DeriveSeed(suite, seedKey, baseSeed)
		rec := TaskRecord{Name: name, SeedKey: seedKey, Seed: seed}
		if e.filter != nil && !e.filter(suite, name) {
			// Not ours to run (the fabric worker executes exactly one task
			// of the decomposed suite): zero result, no cache traffic.
			rec.Skipped = true
			recs[i] = rec
			e.reporter.Done(suite, rec, int(done.Add(1)), n, time.Since(started)) //synclint:wallclock -- progress reporting only
			return
		}
		if cfg, err := json.Marshal(t.Config); err == nil {
			rec.Config = cfg
		}
		t0 := time.Now() //synclint:wallclock -- per-task wall-time telemetry; never hashed

		key, kerr := CacheKey(e.version, suite, name, seed, t.Config)
		if kerr != nil {
			errs[i] = kerr
			rec.Error = kerr.Error()
			fail(i)
		} else {
			rec.CacheKey = key
			switch {
			case e.cache.Get(key, &results[i]):
				rec.CacheHit = true
			case e.ledgerLookup(key, &results[i]):
				// A finished result from a previous (killed) run of this
				// sweep; the ledger key embeds version+config+seed exactly
				// like the cache, so serving it is as safe as a cache hit.
				rec.CheckpointHit = true
				e.cache.Put(key, e.version, suite, name, seed, t.Config, results[i])
			case e.remote != nil:
				// Fabric execution: the pool owns retries, failure
				// detection, and cut migration; what comes back is the
				// worker's canonical-JSON result — the same representation
				// a cache hit would be served from.
				raw, rerr := e.remote.RunTask(suite, name, key, seed)
				if rerr == nil {
					rerr = json.Unmarshal(raw, &results[i])
				}
				if rerr != nil {
					errs[i] = fmt.Errorf("%s/%s: %w", suite, name, rerr)
					rec.Error = errs[i].Error()
					fail(i)
				} else {
					rec.Remote = true
					e.cache.Put(key, e.version, suite, name, seed, t.Config, results[i])
					e.ledgerRecord(suite, name, key, results[i])
				}
			default:
				var res R
				var err error
				if t.RunPhased != nil {
					res, err = t.RunPhased(seed, e.ledgerTask(suite, name))
				} else {
					res, err = t.Run(seed)
				}
				if err != nil {
					errs[i] = fmt.Errorf("%s/%s: %w", suite, name, err)
					rec.Error = errs[i].Error()
					fail(i)
				} else {
					results[i] = res
					e.cache.Put(key, e.version, suite, name, seed, t.Config, res)
					e.ledgerRecord(suite, name, key, res)
					if e.observer != nil {
						e.observer(suite, name, key, seed, res)
					}
				}
			}
		}
		rec.WallSec = time.Since(t0).Seconds() //synclint:wallclock -- per-task wall-time telemetry; never hashed
		recs[i] = rec
		e.reporter.Done(suite, rec, int(done.Add(1)), n, time.Since(started)) //synclint:wallclock -- progress reporting only
	}

	workers := e.jobs
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range tasks {
			if int64(i) > firstFail.Load() {
				break
			}
			runOne(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					if int64(i) > firstFail.Load() {
						continue
					}
					runOne(i)
				}
			}()
		}
		for i := range tasks {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	m := &Manifest{
		Suite:    suite,
		Version:  e.version,
		Jobs:     e.jobs,
		BaseSeed: baseSeed,
		Started:  started,
		WallSec:  time.Since(started).Seconds(), //synclint:wallclock -- wall-time telemetry; never hashed
		Sims:     n,
		Tasks:    recs,
	}
	if m.WallSec > 0 {
		m.SimsPerSec = float64(n) / m.WallSec
	}
	for _, r := range recs {
		switch {
		case r.CacheHit:
			m.CacheHits++
		case r.CheckpointHit:
			m.CheckpointHits++
		case r.Error == "" && r.CacheKey != "":
			m.CacheMisses++
		}
		if r.Remote {
			m.RemoteRuns++
		}
	}
	e.record(m)
	e.reporter.Finish(m)

	for i := range errs {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return results, nil
}

// ledgerLookup, ledgerRecord, and ledgerTask guard the optional sweep
// ledger: e.ckpt is an interface now, so the nil-receiver tolerance the
// *Checkpointer methods provide no longer covers an unset option.
func (e *Engine) ledgerLookup(key string, out any) bool {
	if e.ckpt == nil {
		return false
	}
	return e.ckpt.Lookup(key, out)
}

func (e *Engine) ledgerRecord(suite, name, key string, result any) {
	if e.ckpt != nil {
		e.ckpt.Record(suite, name, key, result)
	}
}

func (e *Engine) ledgerTask(suite, name string) TaskCheckpoint {
	if e.ckpt == nil {
		return nil
	}
	return e.ckpt.Task(suite, name)
}
