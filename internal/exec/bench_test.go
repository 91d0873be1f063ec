package exec

import (
	"fmt"
	"testing"

	"numaperf/internal/topology"
)

// engineAllocBudget is the allocs/op ceiling for BenchmarkEngineRun.
// The baseline snapshot checked in at the repo root
// (BENCH_2026-08-08.json) records 66 (threads=1) and 111 (threads=4);
// the budget leaves roughly 2x headroom so routine churn passes while a
// structural regression — a per-sample allocation slipping into the
// engine's hot loop would multiply allocs by the sample count — trips
// the guard long before it reaches the benchmarks' timing noise floor.
const engineAllocBudget = 256

// engineRun returns one iteration of BenchmarkEngineRun at the given
// thread count: a fresh engine reused across iterations, running a
// load pass and a store pass over 256 KiB.
func engineRun(tb testing.TB, threads int) func() {
	e, err := NewEngine(Config{Machine: topology.TwoSocket(), Threads: threads, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	body := func(t *Thread) {
		buf := t.Alloc(256 << 10)
		for off := uint64(0); off < buf.Size; off += 64 {
			t.Load(buf.Addr(off))
		}
		for off := uint64(0); off < buf.Size; off += 64 {
			t.Store(buf.Addr(off))
		}
	}
	return func() {
		if _, err := e.Run(body); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkEngineRun measures the full execution-driven path per run:
// thread op emission, chunk handoff, page-table resolution and cache
// simulation. This is the per-core cost the parallel campaign executor
// multiplies, so allocation churn here caps the whole system's
// throughput.
func BenchmarkEngineRun(b *testing.B) {
	for _, threads := range []int{1, 4} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			run := engineRun(b, threads)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// TestBenchmarkEngineRunAllocBudget is the alloc guard: it measures
// BenchmarkEngineRun's body on the current code and fails when the
// engine's hot loop regressed past its allocation budget.
func TestBenchmarkEngineRunAllocBudget(t *testing.T) {
	for _, threads := range []int{1, 4} {
		allocs := testing.AllocsPerRun(5, engineRun(t, threads))
		if allocs > engineAllocBudget {
			t.Errorf("BenchmarkEngineRun/threads=%d: %.0f allocs/op, budget %d — the engine hot loop regressed",
				threads, allocs, engineAllocBudget)
		}
		t.Logf("BenchmarkEngineRun/threads=%d: %.0f allocs/op (budget %d)", threads, allocs, engineAllocBudget)
	}
}
