package main

import (
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"numaperf/internal/exec"
	"numaperf/internal/journal"
)

// trace collects the spans and counts of one traced iteration, taken at
// the seams the layers already expose: wrapped constructors and run
// functions, a timing journal.FS, wrapped network connections and a
// no-fault fleet disruptor. It is safe for concurrent use. A nil *trace
// records nothing, so untraced iterations pass nil.
type trace struct {
	mu     sync.Mutex
	values map[string][]float64 // span durations in ns, or other per-event values
	counts map[string]float64
	// chunks is bumped from engine post-chunk hooks, the hottest
	// instrument, so it avoids the mutex.
	chunks atomic.Int64
}

func newTrace() *trace {
	return &trace{values: make(map[string][]float64), counts: make(map[string]float64)}
}

// span records the time since start under name.
func (t *trace) span(name string, start time.Time) {
	t.value(name, float64(time.Since(start)))
}

// value records one observation under name.
func (t *trace) value(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.values[name] = append(t.values[name], v)
	t.mu.Unlock()
}

// add bumps the counter name by n.
func (t *trace) add(name string, n float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

func (t *trace) count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// sum is the total of the observations under name.
func (t *trace) sum(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0.0
	for _, v := range t.values[name] {
		total += v
	}
	return total
}

// n is the number of observations under name.
func (t *trace) n(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.values[name])
}

// quantile is the q-quantile of the observations under name, 0 when
// there are none.
func (t *trace) quantile(name string, q float64) float64 {
	t.mu.Lock()
	vs := append([]float64(nil), t.values[name]...)
	t.mu.Unlock()
	sort.Float64s(vs)
	return percentile(vs, q)
}

// newEngine builds an engine, timing it in a traced iteration. When
// nothing else runs at the same time (serial), the bytes it allocates
// are recorded too.
func newEngine(t *trace, cfg exec.Config, serial bool) (*exec.Engine, error) {
	if t == nil {
		return exec.NewEngine(cfg)
	}
	var before uint64
	if serial {
		before = allocated()
	}
	start := time.Now()
	e, err := exec.NewEngine(cfg)
	t.span("exec.new_engine", start)
	if serial {
		t.value("exec.new_engine_bytes", float64(allocated()-before))
	}
	return e, err
}

// timedFS is a journal.FS that times writes, fsyncs and reads.
type timedFS struct {
	journal.FS
	t *trace
}

func (f timedFS) OpenFile(path string, flag int, perm os.FileMode) (journal.File, error) {
	file, err := f.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return timedFile{File: file, t: f.t}, nil
}

func (f timedFS) ReadFile(path string) ([]byte, error) {
	defer f.t.span("journal.read", time.Now())
	return f.FS.ReadFile(path)
}

func (f timedFS) SyncDir(dir string) error {
	defer f.t.span("journal.fsync", time.Now())
	return f.FS.SyncDir(dir)
}

type timedFile struct {
	journal.File
	t *trace
}

func (f timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.t.span("journal.write", start)
	f.t.add("journal.bytes", float64(n))
	return n, err
}

func (f timedFile) Sync() error {
	defer f.t.span("journal.fsync", time.Now())
	return f.File.Sync()
}

// tracedConn counts and times the frames crossing one probenet
// connection. Bytes are counted on the coordinator's end only, so each
// byte on the wire is counted once.
type tracedConn struct {
	net.Conn
	t           *trace
	coordinator bool
}

func (c tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.coordinator {
		c.t.add("probenet.bytes_in", float64(n))
	}
	return n, err
}

func (c tracedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.t.span("probenet.write", start)
	if c.coordinator {
		c.t.add("probenet.bytes_out", float64(n))
	}
	return n, err
}

// tracedListener wraps every connection the coordinator accepts.
type tracedListener struct {
	net.Listener
	t *trace
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return tracedConn{Conn: c, t: l.t, coordinator: true}, nil
}
