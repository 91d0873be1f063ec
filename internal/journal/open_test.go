package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

var (
	errTestExists   = errors.New("test: journal already exists")
	errTestCorrupt  = errors.New("test: journal corrupt")
	errTestMismatch = errors.New("test: journal does not match")
	errTestDegraded = errors.New("test: journal degraded")
	errTestRefused  = errors.New("test: adopt refused")
)

var testOwner = Owner{
	Name:     "test",
	Exists:   errTestExists,
	Corrupt:  errTestCorrupt,
	Mismatch: errTestMismatch,
	Degraded: errTestDegraded,
}

// TestOpenContract pins Owner.Open's reading of every on-disk starting
// point: what a fresh run may claim, what it must refuse, what a resume
// hands to adopt, and that a refused open leaves the bytes untouched.
func TestOpenContract(t *testing.T) {
	hdr := &header{Kind: "header", Version: 1, Label: "x"}
	frame := func(v any) []byte {
		t.Helper()
		payload, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return Frame(payload)
	}
	full := append(frame(hdr), frame(&item{Kind: "cell", Key: "a"})...)
	cell := frame(&item{Kind: "cell", Key: "b"})
	torn := append(append([]byte(nil), full...), cell[:len(cell)/2]...)
	corrupt := append(frame(hdr), bytes.Replace(frame(&item{Kind: "cell", Key: "a"}), []byte(`"a"`), []byte(`"z"`), 1)...)
	corrupt = append(corrupt, cell...)
	future := frame(&header{Kind: "header", Version: 2})

	cases := []struct {
		name      string
		disk      []byte // nil = no file at all
		resume    bool
		adoptErr  error
		wantErr   error // nil = the open succeeds
		wantAdopt bool
		records   int // records adopt sees
		truncated bool
	}{
		{name: "fresh", resume: false},
		{name: "missing/resume", resume: true},
		{name: "zero-byte/fresh", disk: []byte{}, resume: false},
		{name: "zero-byte/resume", disk: []byte{}, resume: true},
		{name: "header-only/fresh", disk: frame(hdr), wantErr: errTestExists},
		{name: "header-only/resume", disk: frame(hdr), resume: true, wantAdopt: true},
		{name: "existing/fresh", disk: full, wantErr: errTestExists},
		{name: "existing/resume", disk: full, resume: true, wantAdopt: true, records: 1},
		{name: "torn-tail/fresh", disk: torn, wantErr: errTestExists},
		{name: "torn-tail/resume", disk: torn, resume: true, wantAdopt: true, records: 1, truncated: true},
		{name: "adopt-refuses", disk: torn, resume: true, adoptErr: errTestRefused, wantErr: errTestRefused, wantAdopt: true, records: 1, truncated: true},
		{name: "corrupt/resume", disk: corrupt, resume: true, wantErr: errTestCorrupt},
		{name: "version-skew/resume", disk: future, resume: true, wantErr: errTestMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j")
			if tc.disk != nil {
				if err := os.WriteFile(path, tc.disk, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var adopted *State
			adopt := func(st *State) error {
				adopted = st
				return tc.adoptErr
			}
			w, err := testOwner.Open(OSFS, path, tc.resume, SegmentedOptions{Version: 1, Header: hdr}, adopt)
			if (adopted != nil) != tc.wantAdopt {
				t.Fatalf("adopt called = %v, want %v", adopted != nil, tc.wantAdopt)
			}
			if adopted != nil && (len(adopted.Records) != tc.records || adopted.Truncated != tc.truncated) {
				t.Errorf("adopted %d records (truncated %v), want %d (truncated %v)",
					len(adopted.Records), adopted.Truncated, tc.records, tc.truncated)
			}
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				if tc.wantErr == errTestExists && err.Error() != errTestExists.Error()+": "+path {
					t.Errorf("refusal %q does not name the journal", err)
				}
				raw, _ := os.ReadFile(path)
				if !bytes.Equal(raw, tc.disk) {
					t.Errorf("refused open changed the journal:\n%q\nwas\n%q", raw, tc.disk)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(&item{Kind: "cell", Key: "c"}); err != nil {
				t.Fatal(err)
			}
			w.Close()
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			st, err := Parse(raw, 1)
			if err != nil {
				t.Fatal(err)
			}
			if st.Truncated || len(st.Records) != tc.records+1 {
				t.Errorf("after append: truncated=%v records=%d, want %d", st.Truncated, len(st.Records), tc.records+1)
			}
		})
	}
}

// failingFile fails every write with err, as a full or dying disk does.
type failingFile struct {
	File
	err error
}

func (f failingFile) Write([]byte) (int, error) { return 0, f.err }

// TestGuardFaultPolicy pins the shared disk-fault policy: a scripted
// crash comes back verbatim, strict runs stop with the owner's
// Degraded sentinel, and otherwise the journal is dropped, the fault
// reported once, and later appends are no-ops.
func TestGuardFaultPolicy(t *testing.T) {
	cases := []struct {
		name     string
		fault    error
		strict   bool
		wantErr  error
		degraded bool
	}{
		{name: "crash", fault: fmt.Errorf("write: %w", ErrCrashed), wantErr: ErrCrashed},
		{name: "crash/strict", fault: fmt.Errorf("write: %w", ErrCrashed), strict: true, wantErr: ErrCrashed},
		{name: "enospc/strict", fault: syscall.ENOSPC, strict: true, wantErr: errTestDegraded},
		{name: "enospc", fault: syscall.ENOSPC, degraded: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := testOwner.Open(OSFS, filepath.Join(t.TempDir(), "j"), false,
				SegmentedOptions{Version: 1, Header: &header{Kind: "header", Version: 1}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			w.f = failingFile{File: w.f, err: tc.fault}
			var logs []string
			var faults []error
			g := &Guard{W: w, Owner: testOwner, Strict: tc.strict,
				Logf:    func(f string, args ...any) { logs = append(logs, fmt.Sprintf(f, args...)) },
				Degrade: func(fault error) { faults = append(faults, fault) }}
			err = g.Append(&item{Kind: "cell", Key: "a"})
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
			} else if err != nil {
				t.Fatalf("degrading append returned %v", err)
			}
			if got := len(faults) > 0; got != tc.degraded || (g.W == nil) != tc.degraded {
				t.Fatalf("degraded = %v (writer dropped %v), want %v", got, g.W == nil, tc.degraded)
			}
			if !tc.degraded {
				return
			}
			if !errors.Is(faults[0], syscall.ENOSPC) {
				t.Errorf("reported fault %v, want the append's error", faults[0])
			}
			if len(logs) != 1 || !strings.HasPrefix(logs[0], "test: journal degraded, finishing in memory: ") {
				t.Errorf("logs = %q", logs)
			}
			if err := g.Append(&item{Kind: "cell", Key: "b"}); err != nil || len(faults) != 1 {
				t.Errorf("append after degrading: err %v, %d faults reported", err, len(faults))
			}
		})
	}
}
