package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// compareMain prints, for two sets of runs (the output of perfbench
// saved to files, one set per commit), each side's median and quartiles
// for every (workload, end-to-end metric) pair, the share of pairs the
// new side wins when the i-th old run is paired with the i-th new run,
// a per-layer table of median deltas from the traced runs, and whether
// the sim_digest of every seed is unchanged.
//
//	perfbench compare old.txt new.txt
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD NEW (files of saved perfbench output)")
		return 2
	}
	old, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cur, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, side := range []struct {
		name string
		recs []record
	}{{"old", old}, {"new", cur}} {
		hosts := map[string]bool{}
		for _, r := range side.recs {
			h := r.Host
			hosts[fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s",
				h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Commit, h.Source)] = true
		}
		for _, h := range sortedKeys(hosts) {
			fmt.Fprintf(stdout, "%s: %s\n", side.name, h)
		}
	}

	fmt.Fprintf(stdout, "\n%-15s %-15s %-6s %34s %34s %8s %6s\n",
		"WORKLOAD", "METRIC", "UNIT", "OLD median [q1, q3]", "NEW median [q1, q3]", "DELTA", "WINS")
	for _, w := range workloadsIn(old, cur) {
		for _, m := range endToEnd {
			a, b := values(old, w, 0, m.name), values(cur, w, 0, m.name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			pairs, wins := 0, 0
			for i := 0; i < len(a) && i < len(b); i++ {
				pairs++
				if (m.better == "lower" && b[i] < a[i]) || (m.better == "higher" && b[i] > a[i]) {
					wins++
				}
			}
			fmt.Fprintf(stdout, "%-15s %-15s %-6s %34s %34s %+7.1f%% %3d/%-2d\n", w, m.name, m.unit,
				fmt.Sprintf("%.4g [%.4g, %.4g]", a2, a1, a3), fmt.Sprintf("%.4g [%.4g, %.4g]", b2, b1, b3),
				100*relDelta(a2, b2), wins, pairs)
		}
	}

	fmt.Fprintf(stdout, "\n%-15s %-28s %-6s %14s %14s %8s\n", "WORKLOAD", "LAYER METRIC", "UNIT", "OLD median", "NEW median", "DELTA")
	for _, w := range workloadsIn(old, cur) {
		for _, m := range perLayer {
			a, b := values(old, w, 1, m.name), values(cur, w, 1, m.name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			am, bm := median(a), median(b)
			if am == 0 && bm == 0 {
				continue // the layer does no work on this workload
			}
			fmt.Fprintf(stdout, "%-15s %-28s %-6s %14.6g %14.6g %+7.1f%%\n", w, m.name, m.unit, am, bm, 100*relDelta(am, bm))
		}
	}

	fmt.Fprintln(stdout)
	oldDigests, curDigests := digests(old), digests(cur)
	same := 0
	for _, k := range sortedKeys(oldDigests) {
		d, ok := curDigests[k]
		if !ok {
			continue
		}
		if d == oldDigests[k] && d != "mixed" {
			same++
		} else {
			fmt.Fprintf(stdout, "sim_digest changed: %s: %s -> %s\n", k, oldDigests[k], d)
		}
	}
	fmt.Fprintf(stdout, "sim_digest unchanged for %d (workload, seed) pairs\n", same)
	return 0
}

// readRecords reads the "record " lines of saved perfbench output.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "record ")
		if !ok {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no perfbench records", path)
	}
	return recs, nil
}

// values lists a metric's values over the runs of one workload and
// trace mode, in file order.
func values(recs []record, workload string, traced int, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		if v, ok := r.Result.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func workloadsIn(sets ...[]record) []string {
	seen := map[string]bool{}
	for _, recs := range sets {
		for _, r := range recs {
			seen[r.Workload] = true
		}
	}
	return sortedKeys(seen)
}

// digests maps "workload seed=n" to the sim_digest its runs printed,
// or to "mixed" when runs of one seed disagree.
func digests(recs []record) map[string]string {
	out := map[string]string{}
	for _, r := range recs {
		k := fmt.Sprintf("%s seed=%d", r.Workload, r.Seed)
		if d, ok := out[k]; ok && d != r.SimDigest {
			out[k] = "mixed"
			continue
		}
		out[k] = r.SimDigest
	}
	return out
}

func relDelta(old, cur float64) float64 {
	if old == 0 {
		return 0
	}
	return cur/old - 1
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
