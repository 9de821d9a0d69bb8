package experiments

import (
	"strings"
	"testing"

	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
	"hclocksync/internal/harness"
)

func TestAblationJKOffsetAlgRuns(t *testing.T) {
	res, err := AblationJKOffsetAlg(nil, TinyAblationsConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 4 {
		t.Fatalf("%d runs", len(res.Runs))
	}
	labels := res.labels()
	if len(labels) != 2 ||
		!strings.Contains(labels[0], "Mean-RTT-Offset") ||
		!strings.Contains(labels[1], "SKaMPI-Offset") {
		t.Errorf("labels = %v", labels)
	}
	var b strings.Builder
	printAblation(&b, "jk offset alg", res)
	if !strings.Contains(b.String(), "Ablation: jk offset alg") {
		t.Error("printAblation output malformed")
	}
}

// TestMeanRTTConfigCarriesNoRunState runs one SyncAccuracyConfig value
// twice, each time through a fresh single-job engine. Alg. 8's per-pair RTT
// cache must live inside each rank's Sync call: if it were stored in the
// configuration value, the second pass would reuse the first pass's RTTs
// (and concurrent runs would race on them), and the outputs would differ.
func TestMeanRTTConfigCarriesNoRunState(t *testing.T) {
	spec := cluster.Jupiter()
	spec.Nodes, spec.CoresPerSocket = 4, 1
	cfg := SyncAccuracyConfig{
		Job:      Job{Spec: spec, NProcs: 8, Seed: 11},
		NRuns:    2,
		WaitTime: 5,
		Algorithms: []clocksync.Algorithm{clocksync.JK{Params: clocksync.Params{
			NFitpoints: 30, Offset: clocksync.MeanRTTOffset{NExchanges: 10},
		}}},
		Check: clocksync.CheckConfig{Offset: clocksync.SKaMPIOffset{NExchanges: 10}},
	}
	render := func() string {
		res, err := RunSyncAccuracy(harness.New(harness.Options{Jobs: 1}), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		res.Print(&b)
		return b.String()
	}
	first, second := render(), render()
	if first != second {
		t.Errorf("the same config printed different results on a second pass:\n--- first\n%s--- second\n%s", first, second)
	}
}

func TestAblationWanderMakesDriftNonlinear(t *testing.T) {
	cfg := TinyAblationsConfig()
	cfg.WanderProcs, cfg.Horizon = 5, 120
	with, without, err := AblationWander(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2with, r2without := MeanFullR2(with), MeanFullR2(without)
	// Without wander, drift is a perfect line over any horizon.
	if r2without < 0.99999 {
		t.Errorf("fixed-skew full-horizon R² = %v, want ~1", r2without)
	}
	if r2with >= r2without {
		t.Errorf("wandering skew should degrade the long fit: with=%v without=%v",
			r2with, r2without)
	}
}

func TestAblationRecomputeInterceptRuns(t *testing.T) {
	res, err := AblationRecomputeIntercept(nil, TinyAblationsConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.labels()) != 2 {
		t.Fatalf("labels = %v", res.labels())
	}
}
