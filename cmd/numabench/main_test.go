package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"numaperf/internal/experiments"
	"numaperf/internal/topology"
)

// -update rewrites the golden files from the current output instead of
// comparing against them:
//
//	go test ./cmd/numabench -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenReports pins the full rendered output of representative
// experiments — an EvSel comparison (fig8), an EvSel sweep (fig9), a
// Phasenprüfer split (fig11), the two-step strategy against the
// monolithic baselines (twostep) and its cross-machine transfer
// (transfer) — byte for byte. The simulator is
// deterministic for a fixed seed, so any diff here is a behaviour
// change in the measurement stack, not noise; if the change is
// intentional, regenerate with -update and review the diff.
func TestGoldenReports(t *testing.T) {
	cfg := experiments.Config{Machine: topology.DL580Gen9(), Quick: true, Seed: 42}
	for _, id := range []string{"fig8", "fig9", "fig11", "twostep", "transfer"} {
		t.Run(id, func(t *testing.T) {
			rep, err := experiments.Run(id, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := rep.String()
			golden := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if got != string(want) {
				t.Errorf("%s output diverged from %s\n--- got ---\n%s\n--- want ---\n%s",
					id, golden, got, want)
			}
		})
	}
}
