package sim_test

import (
	"context"
	"fmt"
	"os"
	"testing"

	"repro/sim"
)

// dirState snapshots a directory's entries (name, size, modification
// time) so a test can assert nothing in it changed.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	state := make(map[string]string, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		state[e.Name()] = fmt.Sprintf("%d@%d", info.Size(), info.ModTime().UnixNano())
	}
	return state
}

// TestNoStoreBypassesSweepTiers: on a local session a NoStore request
// bypasses every sweep tier — it sweeps afresh even when the session
// holds the sweep, and leaves the store directory and the store and
// memory-cache counters exactly as they were — while measuring the
// same units as a cached run. Plain and multi-offset requests take
// different engine entry points, so both are covered.
func TestNoStoreBypassesSweepTiers(t *testing.T) {
	for _, withStore := range []bool{true, false} {
		for _, phased := range []bool{false, true} {
			t.Run(fmt.Sprintf("store=%v/phases=%v", withStore, phased), func(t *testing.T) {
				dir := t.TempDir()
				var opts []sim.Option
				if withStore {
					opts = append(opts, sim.WithStore(dir))
				}
				sess, err := sim.Open(opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				req := func(extra ...sim.RequestOption) *sim.Request {
					base := []sim.RequestOption{sim.Length(testLen), sim.Units(60), sim.Workers(2)}
					if phased {
						base = append(base, sim.Phases(0, 3))
					}
					return sim.NewRequest(testBench, append(base, extra...)...)
				}
				stats := func() [5]uint64 {
					var n [5]uint64
					n[0], n[1], _ = sess.StoreStats()
					n[2], n[3], n[4], _ = sess.SweepCacheStats()
					return n
				}

				warm, err := sess.Run(context.Background(), req())
				if err != nil {
					t.Fatal(err)
				}
				if _, _, ok := sess.StoreStats(); ok != withStore {
					t.Fatalf("StoreStats ok = %v, want %v", ok, withStore)
				}
				if _, _, _, ok := sess.SweepCacheStats(); ok == withStore {
					t.Fatalf("SweepCacheStats ok = %v, want %v", ok, !withStore)
				}
				before, files := stats(), dirState(t, dir)

				rep, err := sess.Run(context.Background(), req(sim.NoStore()))
				if err != nil {
					t.Fatal(err)
				}
				if rep.Result().SweepCached {
					t.Fatal("NoStore run reused a cached sweep")
				}
				for i := range warm.Results {
					sameMeasurement(t, "NoStore run", rep.Results[i], warm.Results[i])
				}
				if after := stats(); after != before {
					t.Fatalf("NoStore run moved the sweep counters: %v -> %v", before, after)
				}
				if after := dirState(t, dir); fmt.Sprint(after) != fmt.Sprint(files) {
					t.Fatalf("NoStore run touched the store directory:\nbefore %v\nafter  %v", files, after)
				}

				// The tiers still serve a normal request afterwards.
				again, err := sess.Run(context.Background(), req())
				if err != nil {
					t.Fatal(err)
				}
				if !again.Result().SweepCached {
					t.Fatal("a normal run after the NoStore run did not reuse the sweep")
				}
			})
		}
	}
}
