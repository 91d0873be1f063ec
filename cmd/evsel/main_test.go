package main

import (
	"path/filepath"
	"strings"
	"testing"

	"numaperf/internal/exec"
	"numaperf/internal/workloads"
)

// tinyWorkload keeps the CLI tests fast: a few hundred loads over a
// 32 KiB buffer per thread, sequential or page-strided.
type tinyWorkload struct {
	name   string
	stride uint64
}

func (w tinyWorkload) Name() string { return w.name }
func (w tinyWorkload) Body() func(*exec.Thread) {
	return func(t *exec.Thread) {
		buf := t.Alloc(32 << 10)
		for i := uint64(0); i < 512; i++ {
			t.Load(buf.Addr(i * w.stride % buf.Size))
		}
	}
}

func TestMain(m *testing.M) {
	workloads.Register("evsel-cli-seq", func() workloads.Workload { return tinyWorkload{"evsel-cli-seq", 64} })
	workloads.Register("evsel-cli-strided", func() workloads.Workload { return tinyWorkload{"evsel-cli-strided", 4096 + 64} })
	m.Run()
}

// cliEvents spans the fixed counters and two register batches of core
// counters, so batched runs take more than one cell per repetition.
const cliEvents = "INST_RETIRED.ANY,CPU_CLK_UNHALTED.THREAD,MEM_UOPS_RETIRED.ALL_LOADS," +
	"MEM_LOAD_UOPS_RETIRED.L1_MISS,MEM_LOAD_UOPS_RETIRED.L2_MISS,L2_RQSTS.ALL_PF," +
	"LONGEST_LAT_CACHE.REFERENCE,L1D_PEND_MISS.FB_FULL"

func runCLI(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut strings.Builder
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("evsel %v exited %d:\n%s", args, code, errOut.String())
	}
	return out.String(), errOut.String()
}

// tables drops the campaign: accounting lines, which say how the cells
// were obtained (run or replayed) rather than what they measured.
func tables(stdout string) string {
	var keep []string
	for _, line := range strings.Split(stdout, "\n") {
		if !strings.HasPrefix(line, "campaign:") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestOutputIndependentOfExecution is the CLI face of the single
// measurement path: measure, compare and sweep print the same tables
// whether the cells run serially, four at a time, into a journal, or
// are replayed from a completed journal.
func TestOutputIndependentOfExecution(t *testing.T) {
	base := []string{"-machine", "2s", "-reps", "2", "-seed", "7", "-events", cliEvents}
	cases := []struct {
		name string
		args []string
	}{
		{"measure", []string{"-workload", "evsel-cli-strided", "-threads", "2"}},
		{"measure-multiplexed", []string{"-workload", "evsel-cli-strided", "-mode", "multiplexed"}},
		{"compare", []string{"-workload", "evsel-cli-seq", "-compare", "evsel-cli-strided"}},
		{"sweep", []string{"-workload", "evsel-cli-strided", "-sweep", "1,2,4", "-min-r", "0"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append(append([]string(nil), base...), tc.args...)
			ref, _ := runCLI(t, args...)
			if !strings.Contains(ref, "campaign: complete") {
				t.Fatalf("default run is not a complete campaign:\n%s", ref)
			}
			jnl := filepath.Join(t.TempDir(), "j")
			variants := []struct {
				name  string
				extra []string
			}{
				{"parallel", []string{"-parallel", "4"}},
				{"journal", []string{"-journal", jnl}},
				{"resume", []string{"-journal", jnl, "-resume"}},
			}
			for _, v := range variants {
				out, errOut := runCLI(t, append(append([]string(nil), args...), v.extra...)...)
				if got, want := tables(out), tables(ref); got != want {
					t.Errorf("%s output differs from the default run:\ngot:\n%s\nwant:\n%s", v.name, got, want)
				}
				if v.name == "resume" && !strings.Contains(out, "0 run,") {
					t.Errorf("resume over a complete journal ran cells:\n%s%s", out, errOut)
				}
			}
		})
	}
}

// TestShortSweepRefused checks the three-value rule holds on every
// execution path and is reported with a single "evsel:" prefix.
func TestShortSweepRefused(t *testing.T) {
	for _, extra := range [][]string{nil, {"-parallel", "2"}, {"-journal", filepath.Join(t.TempDir(), "j")}} {
		args := append([]string{"-workload", "evsel-cli-seq", "-machine", "2s", "-sweep", "1,2",
			"-events", "INST_RETIRED.ANY,MEM_UOPS_RETIRED.ALL_LOADS"}, extra...)
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 1 {
			t.Errorf("evsel %v exited %d, want 1", args, code)
		}
		if got, want := errOut.String(), "evsel: a sweep needs at least 3 parameter values\n"; got != want {
			t.Errorf("evsel %v: stderr %q, want %q", args, got, want)
		}
		if out.Len() != 0 {
			t.Errorf("evsel %v printed a table for a refused sweep:\n%s", args, out.String())
		}
	}
}
