package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"repro/sim"
)

// environment is recorded with every result.
type environment struct {
	GOMAXPROCS         int    `json:"gomaxprocs"`
	NProc              int    `json:"nproc"`
	CPUModel           string `json:"cpu_model"`
	GoVersion          string `json:"go_version"`
	GitRevision        string `json:"git_revision"`
	SourceDigest       string `json:"source_digest"`
	ReplayWorkers      int    `json:"replay_workers"`
	FleetWorkers       int    `json:"fleet_workers"`
	FleetReplayWorkers int    `json:"fleet_replay_workers"`
}

func environmentOf(root, digest string) environment {
	return environment{
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		NProc:              runtime.NumCPU(),
		CPUModel:           cpuModel(),
		GoVersion:          runtime.Version(),
		GitRevision:        gitRevision(root),
		SourceDigest:       digest,
		ReplayWorkers:      replayWorkers,
		FleetWorkers:       fleetWorkers,
		FleetReplayWorkers: fleetReplayWorkers,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRevision returns the commit checked out at root, read from its .git
// directory, or "none" when root is not a git work tree.
func gitRevision(root string) string {
	git := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(git, "HEAD"))
	if err != nil {
		return "none"
	}
	ref, symbolic := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !symbolic {
		return ref // detached HEAD
	}
	if rev, err := os.ReadFile(filepath.Join(git, ref)); err == nil {
		return strings.TrimSpace(string(rev))
	}
	packed, err := os.ReadFile(filepath.Join(git, "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return "none"
}

// sourceDigest hashes the Go sources and module files under root, so
// results and caches can be tied to the code that produced them when the
// checkout is not a git work tree.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		name := d.Name()
		if d.Type().IsRegular() && (strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(data)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// sameAsLastRun compares v with what an earlier run of the same sources,
// workload and seed recorded under path, and records v when no run has.
// Simulated quantities must repeat exactly from run to run.
func sameAsLastRun(path string, v any) (bool, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return false, err
	}
	prev, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return false, err
		}
		return true, writeAtomic(path, data)
	}
	if err != nil {
		return false, err
	}
	return bytes.Equal(prev, data), nil
}

// writeAtomic writes data to path through a rename, so a concurrent or
// interrupted run never leaves a torn file.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// reference is the full-stream detailed run of a workload.
type reference struct {
	Insts    uint64  `json:"insts"`
	Cycles   uint64  `json:"cycles"`
	EnergyNJ float64 `json:"energy_nj"`
}

// referenceFor returns the workload's full-stream detailed reference,
// computing it once per source digest: the run is deterministic, and on
// the longest workload it costs more than a whole measured run.
func referenceFor(ctx context.Context, b *bench, path string) (*reference, error) {
	if data, err := os.ReadFile(path); err == nil {
		var ref reference
		if err := json.Unmarshal(data, &ref); err == nil {
			return &ref, nil
		}
	}
	s, err := sim.Open()
	if err != nil {
		return nil, err
	}
	defer s.Close()
	full, err := s.Reference(ctx, program, b.w.length, unitSize, b.cfg)
	if err != nil {
		return nil, err
	}
	ref := &reference{Insts: full.Insts, Cycles: full.Cycles, EnergyNJ: full.EnergyNJ}
	data, err := json.Marshal(ref)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return ref, writeAtomic(path, data)
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
