// Command memhist-fleet runs a fleet campaign: it coordinates many
// memhist probes (cmd/memhist-probe -fleet-coordinator) into one
// measurement instrument. Probes dial in and register, are supervised
// through heartbeats (healthy → suspect → dead, with strike accounting
// that quarantines repeat offenders), and the campaign's cells scatter
// across the live fleet. Cells stranded on dead or slow probes
// re-dispatch with deterministic backoff; the gathered histogram is
// byte-identical no matter which probes failed, as long as every cell
// eventually completes.
//
// Usage:
//
//	memhist-fleet -listen :9845 -probes 4 -workload mlc-local -cells 16
//	memhist-fleet -self-probes 2 -workload triad -cells 8 -exact
//	memhist-fleet -probes 8 -suspect-after 5s -dead-after 15s -probe-strikes 3 -strict
//	memhist-fleet -probes 4 -workload mlc-local -cells 64 -journal run.jnl
//	memhist-fleet -probes 4 -workload mlc-local -cells 64 -journal run.jnl -resume
//	memhist-fleet -probes 4 -workload mlc-local -cells 64 -stats-interval 2s
//
// -self-probes spawns in-process probe agents (useful on a single node
// and in tests); -strict turns gaps and quarantine verdicts into a
// nonzero exit. -journal makes the campaign crash-recoverable: every
// committed cell and probe-strike change is CRC-framed and fsynced
// before it is acknowledged, and a coordinator restarted with -resume
// replays the journal, re-scatters only the missing cells to the
// re-registering probes, and produces the same report an uninterrupted
// run would have. -journal-segments N rotates the journal into
// checkpointed segments past N bytes, keeping a week-long campaign's
// journal bounded; with -strict a journal disk fault (ENOSPC, fsync
// failure) aborts the campaign instead of degrading to in-memory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"numaperf/internal/fleet"
	"numaperf/internal/journal"
	"numaperf/internal/memhist"
	"numaperf/internal/topology"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process-global parts so tests can drive the
// full lifecycle.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("memhist-fleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen      = fs.String("listen", "127.0.0.1:9845", "TCP address probes register on")
		probes      = fs.Int("probes", 1, "healthy probes to wait for before starting the campaign")
		waitTimeout = fs.Duration("wait-timeout", time.Minute, "how long to wait for the fleet to assemble")
		selfProbes  = fs.Int("self-probes", 0, "spawn this many in-process probe agents")

		heartbeat    = fs.Duration("heartbeat-interval", fleet.DefaultHeartbeatInterval, "heartbeat period of self-probes")
		suspectAfter = fs.Duration("suspect-after", fleet.DefaultSuspectAfter, "heartbeat silence before a probe is suspect")
		deadAfter    = fs.Duration("dead-after", fleet.DefaultDeadAfter, "heartbeat silence before a probe is dead")
		probeStrikes = fs.Int("probe-strikes", fleet.DefaultProbeStrikes, "strikes before a probe is quarantined")
		cellTimeout  = fs.Duration("cell-timeout", fleet.DefaultCellTimeout, "per-cell dispatch deadline")
		maxRetries   = fs.Int("max-retries", fleet.DefaultMaxRetries, "re-dispatch allowance per cell")
		maxInflight  = fs.Int("max-inflight", 1, "cells in flight per probe at a time; a probe measures one at a time, so extra cells queue there while their -cell-timeout runs")
		keepGoing    = fs.Bool("keep-going", true, "record unserved cells as gaps instead of aborting")
		strict       = fs.Bool("strict", false, "exit nonzero on gaps or quarantined probes")
		journalPath  = fs.String("journal", "", "crash journal: fsync every committed cell to this file")
		journalSegs  = fs.Int("journal-segments", 0, "rotate the journal into checkpointed segments past this many bytes (0 = single file)")
		resume       = fs.Bool("resume", false, "resume a crashed campaign from -journal, re-scattering only missing cells")
		statsEvery   = fs.Duration("stats-interval", 0, "emit CRC-framed campaign health/strike/in-flight snapshot lines this often (0 = off)")

		workload = fs.String("workload", "", "workload to profile")
		machine  = fs.String("machine", "dl580", "machine: dl580, 2s, 8s, uma")
		threads  = fs.Int("threads", 1, "thread count per cell")
		boundCSV = fs.String("bounds", "", "comma-separated latency thresholds in cycles")
		slice    = fs.Uint64("slice", 0, "threshold-cycling slice in cycles (0 = 100 Hz)")
		cells    = fs.Int("cells", 4, "measurement cells to shard across the fleet")
		repsPer  = fs.Int("reps-per-cell", 1, "cycled runs each cell averages")
		adaptive = fs.Bool("adaptive", false, "adaptive dwell-repair cycling")
		exact    = fs.Bool("exact", false, "full-information sampling instead of threshold cycling")
		seed     = fs.Int64("seed", 1, "campaign base seed (cell i uses seed+i+1)")
		modeArg  = fs.String("mode", "occurrences", "occurrences or costs")
		width    = fs.Int("width", 60, "histogram bar width")
		verbose  = fs.Bool("v", false, "log fleet events to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workload == "" {
		fmt.Fprintln(stderr, "memhist-fleet: -workload required")
		fs.Usage()
		return 2
	}
	// Flag sanity that must fail before any socket is opened: a typo'd
	// invocation should not leave a half-assembled fleet behind.
	if *resume && *journalPath == "" {
		fmt.Fprintln(stderr, "memhist-fleet: -resume requires -journal (nothing to resume from)")
		return 2
	}
	if *journalSegs < 0 {
		fmt.Fprintf(stderr, "memhist-fleet: -journal-segments must not be negative (got %d)\n", *journalSegs)
		return 2
	}
	if *journalSegs > 0 && *journalPath == "" {
		fmt.Fprintln(stderr, "memhist-fleet: -journal-segments requires -journal (nothing to rotate)")
		return 2
	}
	if *cellTimeout < 0 {
		fmt.Fprintf(stderr, "memhist-fleet: -cell-timeout must not be negative (got %s)\n", *cellTimeout)
		return 2
	}
	if *maxInflight <= 0 {
		fmt.Fprintf(stderr, "memhist-fleet: -max-inflight must be positive (got %d)\n", *maxInflight)
		return 2
	}
	if *statsEvery < 0 {
		fmt.Fprintf(stderr, "memhist-fleet: -stats-interval must not be negative (got %s)\n", *statsEvery)
		return 2
	}
	if *probes <= 0 && *selfProbes <= 0 {
		fmt.Fprintln(stderr, "memhist-fleet: a campaign needs probes: set -probes or -self-probes")
		return 2
	}
	mode := memhist.Occurrences
	switch *modeArg {
	case "occurrences":
	case "costs":
		mode = memhist.Costs
	default:
		fmt.Fprintf(stderr, "memhist-fleet: unknown mode %q\n", *modeArg)
		return 2
	}
	mach, ok := topology.ByName(*machine)
	if !ok {
		fmt.Fprintf(stderr, "memhist-fleet: unknown machine %q (have %v)\n", *machine, topology.MachineNames())
		return 1
	}
	bounds, err := parseBounds(*boundCSV)
	if err != nil {
		fmt.Fprintf(stderr, "memhist-fleet: %v\n", err)
		return 2
	}

	spec := fleet.Spec{
		Workload:    *workload,
		Machine:     *machine,
		Threads:     *threads,
		Bounds:      bounds,
		SliceCycles: *slice,
		Adaptive:    *adaptive,
		Exact:       *exact,
		Cells:       *cells,
		RepsPerCell: *repsPer,
		Seed:        *seed,
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintf(stderr, "memhist-fleet: %v\n", err)
		return 2
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) }
	}
	coord := fleet.NewCoordinator(fleet.Options{
		SuspectAfter:        *suspectAfter,
		DeadAfter:           *deadAfter,
		ProbeStrikes:        *probeStrikes,
		CellTimeout:         *cellTimeout,
		MaxRetries:          *maxRetries,
		KeepGoing:           *keepGoing,
		JournalPath:         *journalPath,
		JournalSegmentBytes: *journalSegs,
		StrictJournal:       *strict,
		Resume:              *resume,
		Logf:                logf,

		MaxInflightPerProbe: *maxInflight,
	})
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(stderr, "memhist-fleet: %v\n", err)
		return 1
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- coord.Serve(ln) }()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = coord.Shutdown(sctx)
		<-serveErr
	}()
	fmt.Fprintf(stdout, "memhist-fleet: coordinating on %s (suspect %s, dead %s, %d strikes)\n",
		ln.Addr(), *suspectAfter, *deadAfter, *probeStrikes)

	// Self-probes: in-process agents for single-node runs and tests.
	agentCtx, stopAgents := context.WithCancel(ctx)
	defer stopAgents()
	for i := 0; i < *selfProbes; i++ {
		agent := &fleet.ProbeAgent{
			ID:                fmt.Sprintf("self-%d", i+1),
			Coordinator:       ln.Addr().String(),
			HeartbeatInterval: *heartbeat,
			Logf:              logf,
		}
		go func() { _ = agent.Run(agentCtx) }()
	}

	wctx, wcancel := context.WithTimeout(ctx, *waitTimeout)
	err = coord.WaitForProbes(wctx, *probes)
	wcancel()
	if err != nil {
		fmt.Fprintf(stderr, "memhist-fleet: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "memhist-fleet: %d probe(s) registered; scattering %d cell(s)\n", *probes, spec.Cells)

	// -stats-interval: periodic machine-readable health snapshots while
	// the campaign runs, one CRC-framed JSON line per tick on the
	// journal line format. The emitter is joined before the summary
	// prints so snapshot lines never interleave with the report.
	var statsDone chan struct{}
	var statsStop context.CancelFunc
	if *statsEvery > 0 {
		var sctx context.Context
		sctx, statsStop = context.WithCancel(ctx)
		statsDone = make(chan struct{})
		go emitStats(sctx, coord, *statsEvery, stdout, statsDone)
	}

	rep, err := coord.RunCampaign(ctx, spec)
	if statsStop != nil {
		statsStop()
		<-statsDone
	}
	if err != nil {
		fmt.Fprintf(stderr, "memhist-fleet: %v\n", err)
		return 1
	}

	fmt.Fprint(stdout, rep.Summary())
	if rep.Histogram != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, rep.Histogram.Render(mode, *width))
		fmt.Fprintln(stdout, "\npeaks:")
		for _, p := range rep.Histogram.Annotate(mach) {
			hi := fmt.Sprint(p.Hi)
			if p.Hi == 0 {
				hi = "∞"
			}
			fmt.Fprintf(stdout, "  [%d, %s) cycles: %-14s (%.4g events)\n", p.Lo, hi, p.Label, p.Count)
		}
		if rep.Histogram.Quality != nil {
			fmt.Fprintf(stdout, "\nsampling fidelity: %s\n", rep.Histogram.Quality)
		}
	}

	// -strict: the report above is always printed; completeness decides
	// the exit code, matching the other CLIs' strict mode.
	if *strict {
		failed := false
		if !rep.Complete() {
			fmt.Fprintf(stderr, "memhist-fleet: -strict: %d cell(s) gapped\n", len(rep.Gaps))
			failed = true
		}
		if len(rep.Quarantined) > 0 {
			fmt.Fprintf(stderr, "memhist-fleet: -strict: %d probe(s) quarantined\n", len(rep.Quarantined))
			failed = true
		}
		if failed {
			return 1
		}
	}
	return 0
}

// statsSnapshot is one -stats-interval line: coordinator campaign
// accounting plus per-probe health, strike, and in-flight rows. It is
// emitted as a CRC-framed JSON line on the internal/journal line
// format so downstream tooling can checksum-verify each snapshot.
type statsSnapshot struct {
	Kind         string      `json:"kind"`
	Seq          int         `json:"seq"`
	Active       bool        `json:"active"`
	Cells        int         `json:"cells"`
	Completed    int         `json:"completed"`
	Dispatches   int         `json:"dispatches"`
	Backpressure int         `json:"backpressure,omitempty"`
	Probes       []probeStat `json:"probes"`
}

type probeStat struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Strikes  int    `json:"strikes,omitempty"`
	Inflight int    `json:"inflight,omitempty"`
}

// emitStats writes one statsSnapshot line per interval tick until ctx
// is cancelled, then closes done. Each line merges the coordinator's
// campaign-loop progress with the health tracker's probe view.
func emitStats(ctx context.Context, coord *fleet.Coordinator, every time.Duration, w io.Writer, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	seq := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		seq++
		prog := coord.Progress()
		snap := statsSnapshot{
			Kind:         "stats",
			Seq:          seq,
			Active:       prog.Active,
			Cells:        prog.Cells,
			Completed:    prog.Completed,
			Dispatches:   prog.Dispatches,
			Backpressure: prog.Backpressure,
			Probes:       []probeStat{},
		}
		for _, p := range coord.Tracker().Snapshot() {
			snap.Probes = append(snap.Probes, probeStat{
				ID:       p.ID,
				State:    p.State.String(),
				Strikes:  p.Strikes,
				Inflight: prog.InflightByProbe[p.ID],
			})
		}
		payload, err := json.Marshal(snap)
		if err != nil {
			continue
		}
		_, _ = w.Write(journal.Frame(payload))
	}
}

func parseBounds(csv string) ([]uint64, error) {
	if csv == "" {
		return nil, nil
	}
	var out []uint64
	for _, s := range strings.Split(csv, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad bound %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}
