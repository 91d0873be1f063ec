// Sort scaling: reproduce the Fig. 9 correlation study — sweep the
// thread count of the parallel sort (Listing 3) and let EvSel regress
// every counter against it. The paper's two highlighted correlations
// fall out: L1D cache-lock cycles rise with the thread count
// (R > 0.95) and retired speculative taken jumps fall (strongly
// negative R).
//
// The sweep runs as a supervised campaign, and the example doubles as
// a crash-recovery demonstration: the campaign is first killed
// mid-flight by an injected fault, then resumed from its CRC-checked
// journal, and the resumed correlation table is shown to be identical
// to an uninterrupted run with the same seed. The uninterrupted
// reference runs four cells at a time (campaign.Options.Concurrency),
// so the comparison also demonstrates that the parallel executor is
// byte-equivalent to a serial, killed-and-resumed campaign.
//
//	go run ./examples/sort-scaling
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"numaperf/internal/campaign"
	"numaperf/internal/counters"
	"numaperf/internal/evsel"
	"numaperf/internal/exec"
	"numaperf/internal/faultrun"
	"numaperf/internal/perf"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

const seed = 9

func spec() campaign.Spec {
	mach, ok := topology.ByName("dl580")
	if !ok {
		log.Fatal("unknown machine dl580")
	}
	var events []counters.EventID
	for _, name := range []string{
		"LOCK_CYCLES.CACHE_LOCK_DURATION",
		"BR_INST_EXEC.TAKEN_SPECULATIVE",
		"MEM_UOPS_RETIRED.LOCK_LOADS",
		"DTLB_LOAD_MISSES.MISS_CAUSES_A_WALK",
		"MACHINE_CLEARS.MEMORY_ORDERING",
		"INST_RETIRED.ANY",
	} {
		id, ok := counters.Lookup(name)
		if !ok {
			log.Fatalf("unknown event %s", name)
		}
		events = append(events, id)
	}
	var points []campaign.Point
	for _, threads := range []int{1, 2, 4, 6, 8, 12, 16, 18} {
		points = append(points, campaign.EnginePoint(float64(threads),
			exec.Config{Machine: mach, Threads: threads}, workloads.ParallelSort{Elements: 1 << 16}.Body))
	}
	return campaign.Spec{
		ParamName: "threads",
		Points:    points,
		Events:    events,
		Reps:      2,
		Mode:      perf.Batched,
		Seed:      seed,
	}
}

func main() {
	dir, err := os.MkdirTemp("", "sort-scaling-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	journal := filepath.Join(dir, "campaign.journal")

	// The reference: the same campaign left to run uninterrupted, with
	// four cells in flight at a time. Concurrency only changes
	// wall-clock time — the journal and every table stay byte-identical
	// to a serial run — so this reference is also valid for comparison
	// against the serial killed-and-resumed campaign below.
	ref, _, err := evsel.NewSweep(&campaign.Runner{Spec: spec(), Opts: campaign.Options{Concurrency: 4}})
	if err != nil {
		log.Fatal(err)
	}

	// Act 1: the campaign is killed mid-flight. An injected fault makes
	// a cell in the middle of the sweep fail hard; without -keep-going
	// the campaign aborts, but every completed cell is already in the
	// journal.
	script := faultrun.NewScript().On("p4/r0/b0", faultrun.Fault{Kind: faultrun.Exit, ExitCode: 137})
	_, err = (&campaign.Runner{Spec: spec(), Opts: campaign.Options{
		JournalPath: journal,
		MaxRetries:  -1,
		Wrap:        script.Wrap,
	}}).Run()
	var ce *campaign.CampaignError
	if !errors.As(err, &ce) {
		log.Fatalf("expected the injected kill, got %v", err)
	}
	fmt.Printf("campaign killed mid-flight: %v\n", err)

	// Act 2: resume from the journal. Completed cells replay from disk;
	// only the killed cell and its successors execute.
	sweep, rep, err := evsel.NewSweep(&campaign.Runner{Spec: spec(), Opts: campaign.Options{
		JournalPath: journal,
		Resume:      true,
	}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Summary())
	fmt.Println()

	resumed, uninterrupted := sweep.Render(0.5), ref.Render(0.5)
	fmt.Print(resumed)
	fmt.Println()
	if resumed == uninterrupted {
		fmt.Println("resumed campaign matches the uninterrupted run: correlation tables identical")
	} else {
		fmt.Println("MISMATCH: resumed campaign differs from the uninterrupted run")
		os.Exit(1)
	}

	for _, c := range sweep.TopCorrelations(0.9) {
		dir := "rises"
		if c.R < 0 {
			dir = "falls"
		}
		fmt.Printf("%s %s with the thread count: %s (R = %+.3f)\n",
			c.Name, dir, c.Best.Equation(), c.R)
	}
}
