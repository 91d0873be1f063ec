package main

import (
	"bytes"
	"strings"
	"testing"
)

// The report must not depend on how many training sizes are measured
// at once, with or without re-calibration on a second machine.
func TestOutputIndependentOfParallel(t *testing.T) {
	base := []string{"-train", "24576,32768,49152,65536", "-target", "196608"}
	for _, extra := range [][]string{nil, {"-transfer", "2s"}} {
		var want string
		for _, parallel := range []string{"1", "4"} {
			args := append(append(append([]string(nil), base...), extra...), "-parallel", parallel)
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
			}
			if parallel == "1" {
				want = stdout.String()
				if !strings.Contains(want, "monolithic baselines") {
					t.Fatalf("%v: no baselines in\n%s", args, want)
				}
				continue
			}
			if got := stdout.String(); got != want {
				t.Errorf("%v: output differs from -parallel 1\n--- got ---\n%s\n--- want ---\n%s", args, got, want)
			}
		}
	}
}

func TestRunFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-bogus"}, 2, "flag provided but not defined"},
		{[]string{"-family", "nope"}, 1, `unknown family "nope"`},
		{[]string{"-machine", "nope"}, 1, `unknown machine "nope"`},
		{[]string{"-transfer", "nope"}, 1, `unknown transfer machine "nope"`},
		{[]string{"-train", "1,x"}, 1, `bad training size "x"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d naming %q", tc.args, code, stderr.String(), tc.code, tc.want)
		}
	}
}
