package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

//go:embed layers.json
var layersJSON []byte

// layerDoc is one entry of layers.json: a per-layer metric, its unit, how
// it is measured, and which end-to-end metric it should move on which
// workloads.
type layerDoc struct {
	Metric string `json:"metric"`
	Unit   string `json:"unit"`
	Source string `json:"source"`
	Moves  []struct {
		Metric    string   `json:"metric"`
		Workloads []string `json:"workloads"`
	} `json:"moves"`
}

func layerDocs() ([]layerDoc, error) {
	var docs []layerDoc
	if err := json.Unmarshal(layersJSON, &docs); err != nil {
		return nil, fmt.Errorf("layers.json: %w", err)
	}
	return docs, nil
}

// traceFile is what a traced run writes next to its CPU profile.
type traceFile struct {
	Host    hostContext           `json:"host"`
	Passes  map[string]passReport `json:"passes"` // by kind, spans stripped
	Spans   []span                `json:"spans"`  // the traced pass's tasks
	Layers  layerTable            `json:"layers"`
	Metrics map[string]metric     `json:"metrics"`
	Digest  string                `json:"digest"`
	Verdict string                `json:"verdict"`
}

// tracedRun makes three passes — untraced, profiled with spans kept, and
// serial on one thread — plus, for a windowed workload, one on lookahead
// windows across every thread, and reports the per-layer metrics.
func tracedRun(ctx context.Context, exe string, w workload, seed int64, pinned string) (result, error) {
	docs, err := layerDocs()
	if err != nil {
		return result{}, err
	}
	dir, err := traceDir()
	if err != nil {
		return result{}, err
	}
	threads := runtime.NumCPU()
	host := newHostContext(w.name, seed, threads)
	fmt.Println("perfbench: host", host)
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.name, seed))

	specs := []passSpec{
		{workload: w, seed: seed, threads: threads},
		{workload: w, seed: seed, threads: threads, profile: base + ".pprof"},
		{workload: w, seed: seed, threads: 1},
	}
	kinds := []string{"untraced", "traced", "serial"}
	if w.windowed {
		specs = append(specs, passSpec{workload: w, seed: seed, threads: threads, windows: true})
		kinds = append(kinds, "windowed")
	}
	passes := make([]passReport, len(specs))
	for i, spec := range specs {
		if passes[i], err = runPass(ctx, exe, spec); err != nil {
			return result{}, err
		}
		printPass(os.Stdout, i+1, kinds[i], passes[i])
	}
	un, tr, se := passes[0], passes[1], passes[2]
	var win passReport // zero unless the workload has a windowed pass
	if len(passes) > 3 {
		win = passes[3]
	}
	// Without a pin the serial pass is the reference: a parallel run must
	// reproduce the one-thread result byte for byte.
	verdict, ok := gate(passes, pinned, se.Digest, "the serial pass")
	res := tally(passes, ok)

	stacks, err := readProfile(specs[1].profile)
	if err != nil {
		return result{}, err
	}
	table := attribute(stacks)
	m := layerMetrics(table, tr, un, se, win, threads)
	res.Metrics = m

	fmt.Printf("%-26s %12s %-6s %s\n", "per-layer metric", "value", "unit", "should move")
	for _, d := range docs {
		var moves []string
		for _, mv := range d.Moves {
			moves = append(moves, mv.Metric+" on "+strings.Join(mv.Workloads, ","))
		}
		fmt.Printf("%-26s %12.6g %-6s %s\n", d.Metric, m[d.Metric].Value, m[d.Metric].Unit, strings.Join(moves, "; "))
	}
	var layers float64
	for _, b := range selfBuckets {
		if b != runtimeGC && b != unattributed {
			layers += table.Self[b]
		}
	}
	gc, rest := table.Self[runtimeGC], table.Self[unattributed]
	fmt.Printf("profile: layer self times %.4f s + runtime.gc_s %.4f s + unattributed_s %.4f s = %.2f%% of the %.4f s of CPU samples\n",
		layers, gc, rest, 100*safeDiv(layers+gc+rest, table.TotalS), table.TotalS)
	printFailFrac(res)
	fmt.Printf("digest       %s %s (%s passes)\n", se.Digest, verdict, strings.Join(kinds, ", "))

	spans := tr.Spans
	for i := range passes {
		passes[i].Spans = nil
	}
	tf := traceFile{
		Host:    host,
		Passes:  map[string]passReport{},
		Spans:   spans,
		Layers:  table,
		Metrics: m,
		Digest:  se.Digest,
		Verdict: verdict,
	}
	for i, k := range kinds {
		tf.Passes[k] = passes[i]
	}
	raw, err := json.MarshalIndent(tf, "", "  ")
	if err != nil {
		return result{}, err
	}
	if err := os.WriteFile(base+".json", append(raw, '\n'), 0o644); err != nil {
		return result{}, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("trace: %s.json (spans, layer table), %s.pprof\n", base, base)
	return res, nil
}

// layerMetrics derives the per-layer metrics of a traced run: the profile
// attribution of the traced pass tr, its task spans and runtime counters,
// and the untraced (un), serial (se) and windowed (win) passes it is
// compared with.
func layerMetrics(t layerTable, tr, un, se, win passReport, threads int) map[string]metric {
	m := map[string]metric{}
	for name, v := range t.Self {
		m[name] = metric{v, "s"}
	}
	for name, v := range t.Incl {
		m[name] = metric{v, "s"}
	}
	m["profile_s"] = metric{t.TotalS, "s"}
	m["unattributed_frac"] = metric{safeDiv(t.Self[unattributed], t.TotalS), "frac"}

	walls := make([]float64, len(tr.Spans))
	var busy float64
	for i, s := range tr.Spans {
		walls[i] = s.WallS
		busy += s.WallS
	}
	sort.Float64s(walls)
	maxWall := 0.0
	if len(walls) > 0 {
		maxWall = walls[len(walls)-1]
	}
	m["harness.busy_frac"] = metric{safeDiv(busy, tr.WallS*float64(threads)), "frac"}
	m["harness.task_p50_s"] = metric{median(walls), "s"}
	m["harness.task_max_s"] = metric{maxWall, "s"}

	// Only the step-proc sweeps report their event counts; there every
	// span is one sweep point, so span time per event is dispatch cost.
	m["sim.events"] = metric{float64(tr.Events), "count"}
	m["sim.ns_per_event"] = metric{safeDiv(busy*1e9, float64(tr.Events)), "ns"}

	m["runtime.alloc_mb"] = metric{tr.AllocMiB, "MB"}
	m["runtime.gc_cycles"] = metric{float64(tr.GCCycles), "count"}
	m["sim.window_wall_s"] = metric{win.WallS, "s"}
	m["serial_wall_s"] = metric{se.WallS, "s"}
	m["parallel_eff"] = metric{safeDiv(se.WallS, un.WallS*float64(threads)), "frac"}
	m["trace_overhead"] = metric{safeDiv(tr.WallS, un.WallS), "ratio"}
	return m
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
