package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// host names the hardware, toolchain and code a result was measured
// on, so that no figure travels without them.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Commit is the git commit of the checkout, from BENCH_COMMIT (run.sh
	// sets it when the checkout is a git repository), else "none".
	Commit string `json:"commit"`
	// Source hashes every Go source and go.mod file under the working
	// directory, which identifies the code measured even without git.
	Source string `json:"source"`
}

func stampHost() host {
	h := host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     os.Getenv("BENCH_COMMIT"),
		Source:     sourceDigest("."),
	}
	if h.Commit == "" {
		h.Commit = "none"
	}
	return h
}

// cpuModel is the first "model name" of /proc/cpuinfo, or GOARCH where
// there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the paths and contents of the Go sources and
// go.mod files under root in lexical order, skipping hidden
// directories such as .git and .bench_build.
func sourceDigest(root string) string {
	sum := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(sum, path+"\x00")
		_, err = io.Copy(sum, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(sum.Sum(nil)[:6])
}
