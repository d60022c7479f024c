package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); it does not reorder xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-th percentile of sorted and the
// number of samples ranked above it.
func percentile(sorted []time.Duration, q float64) (v time.Duration, beyond int) {
	n := len(sorted)
	idx := int(math.Ceil(q/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx], n - 1 - idx
}

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile in tailPercentiles that still has at
// least ten samples ranked above it, with its value. With fewer than eleven
// samples it falls back to the maximum.
func tail(sorted []time.Duration) (q float64, v time.Duration) {
	for _, q := range tailPercentiles {
		if v, beyond := percentile(sorted, q); beyond >= 10 {
			return q, v
		}
	}
	return 100, sorted[len(sorted)-1]
}

// peakRSSMB reports the process's peak resident set size in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// provenance identifies what produced a result.
type provenance struct {
	Seed       uint64 `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	TreeHash   string `json:"internal_tree_sha256"`
}

func newProvenance(seed uint64, root string) (provenance, error) {
	h, err := treeHash(root)
	if err != nil {
		return provenance{}, err
	}
	return provenance{
		Seed:       seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		TreeHash:   h,
	}, nil
}

// treeHash fingerprints every regular file under root: the SHA-256 of each
// file's slash-separated relative path and contents, in lexical path order.
// It covers the whole simulator (sim, fabric, ibv, xport, core, ...), not
// one package, so a result can be matched to the exact tree that made it.
func treeHash(root string) (string, error) {
	h := sha256.New()
	n := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		size, err := io.Copy(h, f)
		fmt.Fprintf(h, "\x00%d\x00", size)
		n++
		return err
	})
	if err != nil {
		return "", fmt.Errorf("hashing %s: %w", root, err)
	}
	if n == 0 {
		return "", fmt.Errorf("hashing %s: no source files", root)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
