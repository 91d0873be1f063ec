package main

import (
	"context"
	"net"
	"os"
	"os/signal"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"numaperf/internal/exec"
	"numaperf/internal/memhist"
	"numaperf/internal/probenet"
	"numaperf/internal/workloads"
)

// lockedBuf lets the test read run's output while run is still writing.
type lockedBuf struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// blockingWorkload parks the probe's measurement until released so the
// test can deliver SIGTERM while a request is provably in flight.
type blockingWorkload struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (w *blockingWorkload) Name() string { return "test-probe-block" }
func (w *blockingWorkload) Body() func(*exec.Thread) {
	return func(*exec.Thread) {
		w.once.Do(func() { close(w.started) })
		<-w.release
	}
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// TestRunSurvivesSIGTERMDuringMeasurement delivers a real SIGTERM while
// a measurement is in flight: the request must complete, new
// connections must be told "shutting-down", and run must return 0.
func TestRunSurvivesSIGTERMDuringMeasurement(t *testing.T) {
	w := &blockingWorkload{started: make(chan struct{}), release: make(chan struct{})}
	workloads.Register(w.Name(), func() workloads.Workload { return w })

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()

	var out, errOut lockedBuf
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-listen", "127.0.0.1:0", "-drain-timeout", "20s"}, &out, &errOut)
	}()

	// Wait for the probe to announce its address.
	var addr string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
	}
	if addr == "" {
		t.Fatalf("probe never announced its address; output: %q", out.String())
	}

	type result struct {
		h   *memhist.Histogram
		err error
	}
	fetched := make(chan result, 1)
	go func() {
		h, err := memhist.FetchRemoteWith(addr, memhist.ProbeRequest{
			Workload: w.Name(), Machine: "2s", Exact: true, Bounds: []uint64{4, 64},
		}, memhist.FetchOptions{Timeout: 30 * time.Second})
		fetched <- result{h, err}
	}()
	<-w.started

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// During the drain, a new connection must receive "shutting-down".
	sawFarewell := false
	for deadline := time.Now().Add(5 * time.Second); !sawFarewell && time.Now().Before(deadline); {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			break // listener closed: drain already finished
		}
		_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
		ft, payload, err := probenet.ReadFrame(conn)
		if err == nil && ft == probenet.FrameError {
			var em probenet.ErrorMsg
			if probenet.Decode(ft, payload, &em) == nil && em.Code == probenet.CodeShuttingDown {
				sawFarewell = true
			}
		}
		conn.Close()
		if !sawFarewell {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if !sawFarewell {
		t.Error("no shutting-down farewell during drain")
	}

	close(w.release)
	res := <-fetched
	if res.err != nil {
		t.Fatalf("in-flight measurement lost to SIGTERM: %v", res.err)
	}
	if res.h == nil || res.h.Origin != memhist.OriginProbe {
		t.Errorf("histogram = %+v", res.h)
	}

	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("exit code %d, want 0; stderr: %q", code, errOut.String())
		}
	case <-time.After(25 * time.Second):
		t.Fatal("probe did not exit after drain")
	}
	if !strings.Contains(out.String(), "drained cleanly") {
		t.Errorf("output missing drain confirmation: %q", out.String())
	}
}

func TestRunFlagErrors(t *testing.T) {
	var out, errOut lockedBuf
	if code := run(context.Background(), []string{"-definitely-not-a-flag"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	if code := run(context.Background(), []string{"-listen", "256.0.0.1:99999"}, &out, &errOut); code != 1 {
		t.Errorf("bad listen address: exit %d, want 1", code)
	}
	if code := run(context.Background(), []string{"-fleet-coordinator", "coord:1", "-reconnect-base", "-1s"}, &out, &errOut); code != 2 {
		t.Errorf("negative reconnect backoff: exit %d, want 2", code)
	}
}

// Each mode refuses the other mode's flags with exit 2 before opening
// any socket, instead of silently ignoring them.
func TestRunRefusesOtherModeFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // a fleet agent that did start would stop at once
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-listen", "127.0.0.1:0", "-probe-id", "a"}, 2, "-probe-id: fleet agent flags, used only with -fleet-coordinator"},
		{[]string{"-heartbeat-interval", "1s", "-reconnect-base", "1s", "-reconnect-max", "2s"}, 2,
			"-heartbeat-interval, -reconnect-base, -reconnect-max: fleet agent flags"},
		{[]string{"-fleet-coordinator", "127.0.0.1:1", "-listen", "127.0.0.1:0"}, 2, "-listen: listening probe flags, not used with -fleet-coordinator"},
		{[]string{"-fleet-coordinator", "127.0.0.1:1", "-max-conns", "2", "-drain-timeout", "1s"}, 2,
			"-drain-timeout, -max-conns: listening probe flags"},
		{[]string{"-fleet-coordinator", "127.0.0.1:1", "-max-inflight", "1", "-queue-budget", "1", "-brownout-after", "1"}, 2,
			"-brownout-after, -max-inflight, -queue-budget: listening probe flags"},
	} {
		var out, errOut lockedBuf
		code := run(ctx, tc.args, &out, &errOut)
		if code != tc.code || !strings.Contains(errOut.String(), tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d naming %q", tc.args, code, errOut.String(), tc.code, tc.want)
		}
		if out.String() != "" {
			t.Errorf("%v: refused probe still started: %q", tc.args, out.String())
		}
	}
}
