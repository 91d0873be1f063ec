package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json at the repository
// root in step with the metric tables the benchmark prints from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		got   []entry
		table []metric
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.table) {
			t.Fatalf("%s lists %d metrics, the benchmark prints %d", tc.name, len(tc.got), len(tc.table))
		}
		for i, m := range tc.table {
			want := entry{m.name, m.unit, m.better, m.bound}
			if tc.got[i] != want {
				t.Errorf("%s[%d] = %+v, want %+v", tc.name, i, tc.got[i], want)
			}
		}
	}
	if len(doc.Workloads) != len(benchWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(benchWorkloads))
	}
	for _, w := range doc.Workloads {
		if benchWorkloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles(in, n=4) in Python 3.
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3.5, 1.25, 9, 4, 4.5}, 2.375, 4, 6.75},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g, %g, want %g, %g, %g", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestEveryEndToEndMetricIsComputed(t *testing.T) {
	got := newSample().endToEnd()
	if len(got) != len(endToEnd) {
		t.Errorf("a sample computes %d end-to-end metrics, the table has %d", len(got), len(endToEnd))
	}
	for _, m := range endToEnd {
		if _, ok := got[m.name]; !ok {
			t.Errorf("end-to-end metric %s is not computed", m.name)
		}
	}
}
