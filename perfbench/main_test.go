package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

func passes(digests ...string) []passReport {
	var ps []passReport
	for _, d := range digests {
		ps = append(ps, passReport{Sims: 10, Digest: d})
	}
	return ps
}

func TestGateRejectsAChangedOutput(t *testing.T) {
	cases := []struct {
		name          string
		passes        []passReport
		pinned        string
		ok            bool
		failed, tried int
	}{
		// No pin: the first pass is the reference, and the odd pass out
		// counts all of its simulations as failed.
		{"one pass differs", passes("aa", "ab", "aa"), "", false, 10, 30},
		// A pin overrides agreement: passes that agree with each other
		// but not with the pin all fail.
		{"all differ from the pin", passes("aa", "aa"), "bb", false, 20, 20},
		{"all match the pin", passes("bb", "bb"), "bb", true, 0, 20},
		{"all agree, no pin", passes("aa", "aa"), "", true, 0, 20},
		// A pass that died before its first simulation is still a failed
		// run, though it attempted nothing.
		{"aborted before any simulation", append(passes("aa"), passReport{Err: "profile: permission denied"}), "", false, 0, 10},
	}
	for _, c := range cases {
		v, ok := gate(c.passes, c.pinned, c.passes[0].Digest, "the first pass")
		if ok != c.ok || strings.HasPrefix(v, "ok") != c.ok {
			t.Errorf("%s: verdict %q, ok %v; want ok %v", c.name, v, ok, c.ok)
		}
		r := tally(c.passes, ok)
		if r.Correct != c.ok || r.Failed != c.failed || r.Attempted != c.tried {
			t.Errorf("%s: tally = %+v, want correct %v, %d of %d failed", c.name, r, c.ok, c.failed, c.tried)
		}
	}
}

// TestSmokeWorkloads runs a test-sized sweep of every workload in process,
// serial and on two threads, the way a pass does: no failures, and one
// digest for a seed whatever the thread count.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var digests []string
			for _, threads := range []int{1, 2} {
				rep := runPassChild(passSpec{workload: w, seed: 3, threads: threads, smoke: true})
				if rep.Err != "" || rep.Failed != 0 || rep.Sims == 0 || rep.Digest == "" || rep.WallS <= 0 {
					t.Fatalf("threads %d: %+v", threads, rep)
				}
				if w.windowed != (rep.Events > 0) {
					t.Errorf("threads %d: %d events reported", threads, rep.Events)
				}
				digests = append(digests, rep.Digest)
			}
			if digests[0] != digests[1] {
				t.Errorf("digest depends on threads: %v", digests)
			}
			other := runPassChild(passSpec{workload: w, seed: 4, threads: 2, smoke: true})
			if other.Digest == digests[0] {
				t.Errorf("seeds 3 and 4 give the same output")
			}
		})
	}
}

// TestTracedSmokeAccountsForTheProfile profiles a smoke pass and checks that
// the layer self times cover every sample.
func TestTracedSmokeAccountsForTheProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	w, err := lookupWorkload("sync-hier")
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/cpu.pprof"
	rep := runPassChild(passSpec{workload: w, seed: 1, threads: 2, smoke: true, profile: path})
	if rep.Err != "" || len(rep.Spans) != rep.Sims {
		t.Fatalf("traced pass: %d spans for %d sims, error %q", len(rep.Spans), rep.Sims, rep.Err)
	}
	stacks, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	tab := attribute(stacks)
	var sum float64
	for _, v := range tab.Self {
		sum += v
	}
	if tab.TotalS <= 0 || sum < tab.TotalS*(1-1e-9) || sum > tab.TotalS*(1+1e-9) {
		t.Fatalf("self times sum to %g of %g s", sum, tab.TotalS)
	}
	if tab.Self[simHandoff]+tab.Self[mpiP2P] == 0 {
		t.Errorf("a sync sweep spent nothing in the fiber handoff or MPI point-to-point: %v", tab.Self)
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json, layers.json and
// the metrics the program prints naming the same things.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}

	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program has %d", names, len(workloads))
	}

	e2e := endToEnd(passes("aa"), []float64{0.1})
	checkUnits(t, "end_to_end", e2e, bf.EndToEnd)

	docs, err := layerDocs()
	if err != nil {
		t.Fatal(err)
	}
	layer := layerMetrics(attribute(nil), passReport{}, passReport{}, passReport{}, passReport{}, 1)
	checkUnits(t, "per_layer", layer, bf.PerLayer)
	var docNames []string
	for _, d := range docs {
		docNames = append(docNames, d.Metric)
		if m, ok := layer[d.Metric]; !ok || m.Unit != d.Unit {
			t.Errorf("layers.json %s (%s) is not a per-layer metric of the program (%+v)", d.Metric, d.Unit, m)
		}
		// A metric may move nothing gated, but then its source says so.
		if d.Source == "" || len(d.Moves) == 0 && !strings.Contains(d.Source, "moves no gated metric") {
			t.Errorf("layers.json %s does not say how it is measured and what it should move", d.Metric)
		}
		for _, mv := range d.Moves {
			if _, ok := e2e[mv.Metric]; !ok {
				t.Errorf("layers.json %s moves unknown end-to-end metric %s", d.Metric, mv.Metric)
			}
			for _, w := range mv.Workloads {
				if !slices.Contains(names, w) {
					t.Errorf("layers.json %s names unknown workload %s", d.Metric, w)
				}
			}
		}
	}
	if len(docNames) != len(layer) {
		t.Errorf("layers.json has %d metrics, the program prints %d", len(docNames), len(layer))
	}
}

// TestPinsCoverEveryWorkload requires a pinned digest for each workload's
// default seed, so the gate always has a fixed reference to check.
func TestPinsCoverEveryWorkload(t *testing.T) {
	p, err := pins()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if d := p[w.name]["0"]; len(d) != 64 {
			t.Errorf("%s: default-seed pin %q is not a SHA-256", w.name, d)
		}
	}
	if len(p) != len(workloads) {
		t.Errorf("pins.json pins %d workloads, the program has %d", len(p), len(workloads))
	}
}

func checkUnits(t *testing.T, section string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("%s %s (%s): program prints %+v", section, m.Name, m.Unit, g)
		}
	}
	var have []string
	for k := range got {
		have = append(have, k)
	}
	sort.Strings(have)
	sort.Strings(names)
	if !slices.Equal(have, names) {
		t.Errorf("%s names %v, program prints %v", section, names, have)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}
