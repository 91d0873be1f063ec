package campaign

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// inOrderTrace runs InOrder over n cells, replaying every third one and
// failing the commit of cell abortAt (-1: never), and returns the log
// of commits plus the set of cells that ran.
func inOrderTrace(t *testing.T, n, workers, abortAt int) (commits []string, ran map[int]bool, err error) {
	t.Helper()
	var mu sync.Mutex
	ran = map[int]bool{}
	err = InOrder(n, workers, func(i int) bool { return i%3 == 2 },
		func(int) *Supervisor { return &Supervisor{} },
		func(i int) (int, error) {
			mu.Lock()
			ran[i] = true
			mu.Unlock()
			return i * i, nil
		},
		func(i int, o Outcome[int]) error {
			commits = append(commits, fmt.Sprintf("%d:%d/%d", i, o.Val, o.Attempts))
			if i == abortAt {
				return errors.New("abort")
			}
			return nil
		})
	mu.Lock()
	defer mu.Unlock()
	return commits, ran, err
}

func TestInOrderCommitsInIndexOrderAtAnyWorkerCount(t *testing.T) {
	want, _, err := inOrderTrace(t, 12, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if want[2] != "2:0/0" || want[3] != "3:9/1" {
		t.Fatalf("serial commits %v: replayed cells must commit a zero Outcome", want)
	}
	for _, workers := range []int{0, 2, 4, 32} {
		got, ran, err := inOrderTrace(t, 12, workers, -1)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("workers=%d: commits %v, want %v", workers, got, want)
		}
		for i := range ran {
			if i%3 == 2 {
				t.Errorf("workers=%d: replayed cell %d ran", workers, i)
			}
		}
	}
}

// Serially each cell runs inside the commit loop: nothing past the
// failed cell runs, and nothing is committed after it at any width.
func TestInOrderAbortLeavesACleanPrefix(t *testing.T) {
	for _, workers := range []int{1, 4} {
		commits, ran, err := inOrderTrace(t, 12, workers, 4)
		if err == nil || len(commits) != 5 {
			t.Fatalf("workers=%d: err %v, commits %v; want an abort after cell 4", workers, err, commits)
		}
		if workers == 1 {
			for i := range ran {
				if i > 4 {
					t.Errorf("serial abort still ran cell %d", i)
				}
			}
		}
	}
}

// Serial cells run inside the commit loop, one at a time between
// commits, never ahead of it.
func TestInOrderSerialRunsInline(t *testing.T) {
	committed := -1
	err := InOrder(5, 1, nil, func(int) *Supervisor { return &Supervisor{} },
		func(i int) (struct{}, error) {
			if committed != i-1 {
				return struct{}{}, fmt.Errorf("cell %d ran with %d committed", i, committed)
			}
			return struct{}{}, nil
		},
		func(i int, o Outcome[struct{}]) error {
			committed = i
			return o.Err
		})
	if err != nil {
		t.Fatal(err)
	}
}

// After an abort with cells still in flight, every pool goroutine
// exits once those cells finish: results are buffered for every cell.
func TestInOrderAbortLeaksNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	release := make(chan struct{})
	err := InOrder(16, 4, nil, func(int) *Supervisor { return &Supervisor{} },
		func(i int) (int, error) {
			if i > 0 {
				<-release
			}
			return i, nil
		},
		func(i int, o Outcome[int]) error { return errors.New("abort at once") })
	if err == nil {
		t.Fatal("commit error not returned")
	}
	close(release)
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, %d before", runtime.NumGoroutine(), before)
		}
	}
}
