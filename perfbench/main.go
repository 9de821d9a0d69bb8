// Command perfbench is the repository's benchmark. It runs one named
// workload — a fixed sweep through the same experiments.Run* entry points
// cmd/runexp uses, with the result cache off — and prints its end-to-end
// metrics, or, with -trace 1, a per-layer table from a profiled pass.
//
//	bash perfbench/run.sh --workload sync-hier --seed 1 --seconds 30 --trace 0
//
// Workloads: sync-hier (Fig. 4's HCA3 vs H2HCA sweep), coll-bench (Fig. 7
// then Fig. 9) and step-scale (the 100k- and 250k-rank step-proc sweeps); NOTES.md
// says why each is there and which layer metric should move which
// end-to-end metric on which workload (layers.json).
//
// Every sweep runs in a fresh child process (a "pass"), so its set-up,
// CPU time and peak RSS are its own. An untraced run repeats passes for
// -seconds and reports the median of each metric. A traced run makes an
// untraced pass, a profiled pass and a serial pass (one thread), and
// attributes the profile's CPU samples to the repository's layers.
//
// Correctness: every pass hashes its printed result. The hash must equal
// the one pinned in pins.json for the workload and seed when there is
// one, and every pass of a run must agree; a traced run also compares the
// parallel passes against the serial one. A pass that disagrees counts all
// of its simulations as failed.
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and the metrics with their units.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"
)

// runTimeout bounds a whole run: every pass is killed past it.
const runTimeout = 170 * time.Second

// setupProbes is how many set-up-only children an untraced run starts
// before each pass; setup_s is the median over probes and passes. Spread
// over the run, the probes meet different moments of host noise, which
// on a shared host stretches a few-millisecond set-up several times over.
const setupProbes = 6

//go:embed pins.json
var pinsJSON []byte

// pins maps workload → seed → SHA-256 of the sweep's printed result.
func pins() (map[string]map[string]string, error) {
	var p map[string]map[string]string
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: sync-hier, coll-bench or step-scale")
	seed := flag.Int64("seed", 0, "workload seed; 0 keeps the experiments' own base seeds")
	seconds := flag.Float64("seconds", 30, "how long an untraced run keeps repeating passes")
	trace := flag.Int("trace", 0, "1 makes a traced run that prints the per-layer table")
	pinTo := flag.Int64("pin", -1, "print the result digests of seeds 0..N as pins.json entries and exit")
	pass := flag.Bool("pass", false, "internal: run one pass and report it on stdout")
	threads := flag.Int("threads", 0, "internal: threads of a pass")
	profile := flag.String("profile", "", "internal: CPU profile path of a traced pass")
	setupOnly := flag.Bool("setup-only", false, "internal: end the pass when its first task starts")
	windows := flag.Bool("windows", false, "internal: one simulation at a time on -threads kernel workers")
	flag.Parse()

	w, err := lookupWorkload(*name)
	if err != nil {
		fail(err)
	}
	if *pass {
		rep := runPassChild(passSpec{workload: w, seed: *seed, threads: *threads, profile: *profile, setupOnly: *setupOnly, windows: *windows})
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fail(err)
		}
		return
	}
	exe, err := os.Executable()
	if err != nil {
		fail(err)
	}
	if *pinTo >= 0 {
		// Pinning is a maintenance step, not a measured run: no deadline.
		if err := printPins(context.Background(), exe, w, *pinTo); err != nil {
			fail(err)
		}
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	p, err := pins()
	if err != nil {
		fail(err)
	}
	pinned := p[w.name][strconv.FormatInt(*seed, 10)]

	var res result
	switch *trace {
	case 0:
		res, err = untracedRun(ctx, exe, w, *seed, *seconds, pinned)
	case 1:
		res, err = tracedRun(ctx, exe, w, *seed, pinned)
	default:
		err = fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// untracedRun repeats passes for about seconds and reports the medians of
// the end-to-end metrics.
func untracedRun(ctx context.Context, exe string, w workload, seed int64, seconds float64, pinned string) (result, error) {
	threads := runtime.NumCPU()
	fmt.Println("perfbench: host", newHostContext(w.name, seed, threads))
	start := time.Now()
	var setups []float64
	var passes []passReport
	for {
		for i := 0; i < setupProbes; i++ {
			rep, err := runPass(ctx, exe, passSpec{workload: w, seed: seed, threads: threads, setupOnly: true})
			if err != nil {
				return result{}, err
			}
			setups = append(setups, rep.SetupS)
		}
		rep, err := runPass(ctx, exe, passSpec{workload: w, seed: seed, threads: threads})
		if err != nil {
			return result{}, err
		}
		passes = append(passes, rep)
		printPass(os.Stdout, len(passes), "untraced", rep)
		// Start another pass only if the longest one so far still fits.
		if time.Since(start).Seconds()+slices.Max(field(passes, func(p passReport) float64 { return p.TotalS })) > seconds {
			break
		}
	}
	fmt.Printf("perfbench: set-up probes (ms):")
	for _, s := range setups {
		fmt.Printf(" %.3f", s*1e3)
	}
	fmt.Println()
	verdict, ok := gate(passes, pinned, passes[0].Digest, "the first pass")
	res := tally(passes, ok)
	res.Metrics = endToEnd(passes, setups)
	for _, k := range []string{"wall_s", "cpu_s", "peak_rss_mb"} {
		fmt.Printf("%-12s %.6g %s (median of %d passes)\n", k, res.Metrics[k].Value, res.Metrics[k].Unit, len(passes))
	}
	fmt.Printf("%-12s %.6g s (median of %d set-ups: %d probes and %d passes)\n", "setup_s", res.Metrics["setup_s"].Value, len(setups)+len(passes), len(setups), len(passes))
	printFailFrac(res)
	fmt.Printf("digest       %s %s\n", passes[0].Digest, verdict)
	return res, nil
}

// endToEnd derives the end-to-end metrics of an untraced run from its
// passes and set-up probes: the median of each over the run.
func endToEnd(passes []passReport, setups []float64) map[string]metric {
	return map[string]metric{
		"wall_s":      {median(field(passes, func(p passReport) float64 { return p.WallS })), "s"},
		"cpu_s":       {median(field(passes, func(p passReport) float64 { return p.CPUS })), "s"},
		"peak_rss_mb": {median(field(passes, func(p passReport) float64 { return float64(p.MaxRSSKiB) / 1024 })), "MB"},
		"setup_s":     {median(append(setups, field(passes, func(p passReport) float64 { return p.SetupS })...)), "s"},
	}
}

// tally sums attempts and failures over passes; the run is correct when
// the gate passed and no simulation failed.
func tally(passes []passReport, gateOK bool) result {
	var r result
	for _, p := range passes {
		r.Attempted += p.Sims
		r.Failed += p.Failed
	}
	if r.Attempted == 0 {
		r.Attempted = 1 // a sweep that never started still counts as an attempt
		r.Failed = 1
	}
	r.Correct = gateOK && r.Failed == 0
	return r
}

// printFailFrac prints failed ÷ attempted simulations. It is not an
// end-to-end metric of the result line, which carries the two counts.
func printFailFrac(r result) {
	fmt.Printf("%-12s %.6g frac (%d of %d simulations failed)\n", "fail_frac", float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
}

// gate checks every pass's digest against pinned when the seed has a pin,
// else against ref, the digest of the pass named refName, and marks a
// disagreeing pass's simulations failed. It returns the verdict line and
// whether every pass finished with the expected digest.
func gate(passes []passReport, pinned, ref, refName string) (string, bool) {
	want, what := ref, "matches "+refName+" (seed not pinned)"
	if pinned != "" {
		want, what = pinned, "matches the pinned digest"
	}
	bad := 0
	for i := range passes {
		p := &passes[i]
		if p.Err != "" {
			bad++
			continue
		}
		if p.Digest != want {
			p.Failed = p.Sims
			bad++
		}
	}
	if bad > 0 {
		return fmt.Sprintf("MISMATCH: %d of %d passes differ from %s", bad, len(passes), want), false
	}
	return "ok: " + what, true
}

func printPass(w io.Writer, i int, kind string, p passReport) {
	fmt.Fprintf(w, "perfbench: pass %d (%s): wall %.4f s, cpu %.4f s, peak rss %.1f MB, setup %.4f s, host steal %.2f s, %d sims, %d failed, digest %.16s\n",
		i, kind, p.WallS, p.CPUS, float64(p.MaxRSSKiB)/1024, p.SetupS, p.StealS, p.Sims, p.Failed, p.Digest)
	if p.Err != "" {
		fmt.Fprintf(w, "perfbench: pass %d error: %s\n", i, p.Err)
	}
}

// printPins runs one pass per seed 0..last and prints their digests in
// pins.json's shape.
func printPins(ctx context.Context, exe string, w workload, last int64) error {
	out := map[string]map[string]string{w.name: {}}
	for s := int64(0); s <= last; s++ {
		rep, err := runPass(ctx, exe, passSpec{workload: w, seed: s, threads: runtime.NumCPU()})
		if err != nil {
			return err
		}
		if rep.Err != "" || rep.Failed > 0 {
			return fmt.Errorf("seed %d: %d failed: %s", s, rep.Failed, rep.Err)
		}
		out[w.name][strconv.FormatInt(s, 10)] = rep.Digest
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func field(ps []passReport, f func(passReport) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// median of xs; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// traceDir holds the traced runs' profiles, spans and layer tables.
func traceDir() (string, error) {
	dir := filepath.Join(".bench_build", "perfbench", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating %s: %w", dir, err)
	}
	return dir, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
