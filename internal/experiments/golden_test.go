package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"numaperf/internal/topology"
)

// -update rewrites testdata/headline_metrics.json from the current
// runs instead of comparing against it:
//
//	go test ./internal/experiments -run TestHeadlineMetricDrift -update
var update = flag.Bool("update", false, "rewrite the headline metric goldens")

const headlineGolden = "headline_metrics.json"

// headlineExperiments are the figures whose key numbers the CI
// benchmark job guards: the EvSel comparison (fig8), the EvSel sweep
// correlations (fig9), both Memhist panels (fig10), the two-step
// prediction against the monolithic baselines (twostep) and its
// cross-machine transfer (transfer). The simulator
// is bit-deterministic for a fixed seed, so the recorded metrics must
// reproduce exactly; any drift is a behaviour change in the
// measurement stack. Regenerate with -update when the change is
// intentional, and review the numeric diff like any other code change.
var headlineExperiments = []string{"fig8", "fig9", "fig10a", "fig10b", "twostep", "transfer"}

func TestHeadlineMetricDrift(t *testing.T) {
	cfg := Config{Machine: topology.DL580Gen9(), Quick: true, Seed: 42}
	got := map[string]map[string]float64{}
	for _, id := range headlineExperiments {
		rep, err := Run(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got[id] = rep.Metrics
	}

	golden := filepath.Join("testdata", headlineGolden)
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	var want map[string]map[string]float64
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing %s: %v", golden, err)
	}
	for _, id := range headlineExperiments {
		wm, ok := want[id]
		if !ok {
			t.Errorf("%s: missing from %s (regenerate with -update)", id, golden)
			continue
		}
		for k, wv := range wm {
			gv, ok := got[id][k]
			if !ok {
				t.Errorf("%s: metric %q no longer reported", id, k)
				continue
			}
			if gv != wv {
				t.Errorf("%s: metric %q drifted: got %.10g, golden %.10g", id, k, gv, wv)
			}
		}
		for k := range got[id] {
			if _, ok := wm[k]; !ok {
				t.Errorf("%s: new metric %q not in golden (regenerate with -update)", id, k)
			}
		}
	}
}
