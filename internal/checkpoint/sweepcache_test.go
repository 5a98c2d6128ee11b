package checkpoint_test

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/uarch"
)

// TestSweepCacheLRU: the memory tier's byte cap evicts
// least-recently-used entries on insert, a Get refreshes recency, the
// just-inserted entry is never evicted, and the stats counters track it
// all.
func TestSweepCacheLRU(t *testing.T) {
	p := genProg(t, "gzipx", 100_000)
	cfg := uarch.Config8Way()
	params := func(j uint64) checkpoint.Params {
		return checkpoint.Params{U: 1000, K: 20, J: j}
	}
	sets := make([]*checkpoint.Set, 4)
	keys := make([]checkpoint.Key, 4)
	size := make([]int64, 4)
	for j := range sets {
		sets[j] = capture(t, p, cfg, params(uint64(j)))
		keys[j] = checkpoint.KeyFor(p, cfg, params(uint64(j)))
		size[j] = int64(sets[j].WarmBytes()) + int64(sets[j].MemBytes())
		if size[j] == 0 {
			t.Fatal("captured set accounts zero payload bytes")
		}
	}
	get := func(c *checkpoint.SweepCache, k checkpoint.Key) *checkpoint.Set {
		t.Helper()
		set, err := c.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}

	// Room for entries 0 and 1, or 0 and 2 — but not all three, so the
	// third insert evicts exactly one entry.
	maxBytes := size[0] + size[1] + size[2] - 1
	c := checkpoint.NewSweepCache(maxBytes, nil)

	c.Put(keys[0], sets[0])
	c.Put(keys[1], sets[1])
	if _, _, _, held, _ := c.MemStats(); held > maxBytes {
		t.Fatalf("cache holds %d bytes over the %d cap", held, maxBytes)
	}
	// Touch 0 so 1 is the LRU entry, then insert 2: 1 must go.
	if get(c, keys[0]) == nil {
		t.Fatal("entry 0 missing before eviction pressure")
	}
	c.Put(keys[2], sets[2])
	if get(c, keys[1]) != nil {
		t.Fatal("least-recently-used entry survived eviction")
	}
	if get(c, keys[0]) == nil || get(c, keys[2]) == nil {
		t.Fatal("recently-used entries were evicted")
	}

	// An entry bigger than the whole cap still serves its own run: the
	// just-inserted entry is exempt from eviction.
	tiny := checkpoint.NewSweepCache(1, nil)
	tiny.Put(keys[3], sets[3])
	if get(tiny, keys[3]) == nil {
		t.Fatal("oversized just-inserted entry was evicted")
	}

	hits, misses, evictions, _, ok := c.MemStats()
	if !ok {
		t.Fatal("memory cache reports no memory tier")
	}
	if evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
	if hits != 3 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 3/1", hits, misses)
	}

	// Unbounded cache never evicts.
	free := checkpoint.NewSweepCache(0, nil)
	for j := range sets {
		free.Put(keys[j], sets[j])
	}
	_, _, ev, held, _ := free.MemStats()
	if ev != 0 {
		t.Fatalf("unbounded cache evicted %d entries", ev)
	}
	if want := size[0] + size[1] + size[2] + size[3]; held != want {
		t.Fatalf("unbounded cache accounts %d bytes, want %d", held, want)
	}
}

// TestSweepCacheTiers pins the tier policy for every configuration the
// system runs: memory only (storeless sessions, fleet workers), disk
// only (store-backed sessions) and memory in front of disk (the fleet
// coordinator).
func TestSweepCacheTiers(t *testing.T) {
	p := genProg(t, "gccx", 120_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 20, FunctionalWarm: true}
	set := capture(t, p, cfg, params)
	key := checkpoint.KeyFor(p, cfg, params)
	streamParams := params
	streamParams.J = 1
	streamKey := checkpoint.KeyFor(p, cfg, streamParams)

	for _, tc := range []struct {
		name      string
		mem, disk bool
	}{
		{"memory", true, false},
		{"disk", false, true},
		{"both", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var store *checkpoint.Store
			var logMu sync.Mutex
			var saves int
			if tc.disk {
				var err error
				if store, err = checkpoint.OpenStore(t.TempDir()); err != nil {
					t.Fatal(err)
				}
				store.Logf = func(format string, _ ...any) {
					logMu.Lock()
					defer logMu.Unlock()
					if strings.HasPrefix(format, "checkpoint store: saved") {
						saves++
					}
				}
			}
			open := func() *checkpoint.SweepCache {
				if tc.mem {
					return checkpoint.NewSweepCache(0, store)
				}
				return checkpoint.DiskCache(store)
			}
			// counters reads (memory hits, memory misses, disk hits, disk
			// misses).
			counters := func(c *checkpoint.SweepCache) [4]uint64 {
				var n [4]uint64
				n[0], n[1], _, _, _ = c.MemStats()
				if store != nil {
					n[2], n[3] = store.Stats()
				}
				return n
			}
			expect := func(c *checkpoint.SweepCache, label string, want [4]uint64) {
				t.Helper()
				if got := counters(c); got != want {
					t.Fatalf("%s: counters (mem hit, mem miss, disk hit, disk miss) = %v, want %v", label, got, want)
				}
			}
			get := func(c *checkpoint.SweepCache, k checkpoint.Key) *checkpoint.Set {
				t.Helper()
				got, err := c.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				return got
			}
			b := func(v bool) uint64 {
				if v {
					return 1
				}
				return 0
			}
			m, d := b(tc.mem), b(tc.disk)

			c := open()
			if _, _, _, _, ok := c.MemStats(); ok != tc.mem {
				t.Fatalf("MemStats ok = %v, want %v", ok, tc.mem)
			}
			if c.Store() != store {
				t.Fatal("Store() is not the disk tier")
			}
			if get(c, key) != nil || c.Contains(key) {
				t.Fatal("empty cache holds the sweep")
			}
			expect(c, "cold miss", [4]uint64{0, m, 0, d})

			// Put writes through to disk exactly once, even when repeated.
			c.Put(key, set)
			c.Put(key, set)
			if saves != int(d) {
				t.Fatalf("two Puts saved %d disk entries, want %d", saves, d)
			}
			if tc.disk {
				ckpts, _ := filepath.Glob(filepath.Join(store.Dir(), "*.ckpt"))
				if len(ckpts) != 1 {
					t.Fatalf("store holds %d entries after Put, want 1", len(ckpts))
				}
			}
			if _, _, _, held, _ := c.MemStats(); tc.mem && held == 0 {
				t.Fatal("memory tier accounts no bytes after Put")
			}

			// Contains leaves every counter alone.
			before := counters(c)
			if !c.Contains(key) {
				t.Fatal("Contains misses a cached sweep")
			}
			expect(c, "after Contains", before)

			// Memory is checked first: with a memory tier the hit never
			// reaches the disk.
			got := get(c, key)
			if got == nil || len(got.Units) != len(set.Units) {
				t.Fatalf("Get after Put: %v", got)
			}
			expect(c, "warm hit", [4]uint64{m, m, d * (1 - m), d})

			// A Get result is the caller's: nilling its units leaves the
			// cached sweep whole.
			for i := range got.Units {
				got.Units[i] = nil
			}
			again := get(c, key)
			if again == nil || len(again.Units) != len(set.Units) {
				t.Fatalf("cached sweep lost units after a caller nilled its copy")
			}
			for i, u := range again.Units {
				if u == nil {
					t.Fatalf("cached unit %d nilled through a Get result", i)
				}
			}

			if tc.disk {
				// A fresh cache over the same store: the disk hit is
				// promoted into memory only when there is a memory tier.
				fresh := open()
				base := counters(fresh)
				for i := 0; i < 2; i++ {
					if get(fresh, key) == nil {
						t.Fatal("disk entry not served")
					}
				}
				want := [4]uint64{0, 0, base[2] + 2, base[3]}
				if tc.mem {
					// miss-then-promote, then a memory hit
					want = [4]uint64{1, 1, base[2] + 1, base[3]}
				}
				expect(fresh, "promotion", want)
			}

			// A streamed sweep is retained for the memory tier only.
			_, _, _, memBefore, _ := c.MemStats()
			w := c.Writer(streamKey, set.PopulationUnits, 0)
			for _, u := range set.Units {
				w.Add(u)
			}
			if want := int(m) * len(set.Units); w.Retained() != want {
				t.Fatalf("streamed writer retained %d units, want %d", w.Retained(), want)
			}
			w.Commit(set.K, &checkpoint.Summary{PopulationUnits: set.PopulationUnits,
				SweepInsts: set.SweepInsts, SweepTime: set.SweepTime, Complete: true})
			if _, _, _, held, _ := c.MemStats(); (held > memBefore) != tc.mem {
				t.Fatalf("memory tier grew %v after a streamed sweep, want %v", held > memBefore, tc.mem)
			}
			if tc.disk && !store.Contains(streamKey) {
				t.Fatal("streamed sweep not committed to disk")
			}
			if streamed := get(c, streamKey); streamed == nil || len(streamed.Units) != len(set.Units) {
				t.Fatal("streamed sweep not served")
			}

			// A suspended stream leaves no entry in any tier.
			abortKey := checkpoint.KeyFor(p, cfg, checkpoint.Params{U: 1000, W: 1000, K: 20, J: 2, FunctionalWarm: true})
			w = c.Writer(abortKey, set.PopulationUnits, 0)
			w.Add(set.Units[0])
			w.Suspend()
			if c.Contains(abortKey) {
				t.Fatal("suspended stream left an entry")
			}
		})
	}
}

// TestSweepCacheNil: a nil cache has no tiers and every call is a
// no-op, so callers need no nil checks.
func TestSweepCacheNil(t *testing.T) {
	var c *checkpoint.SweepCache
	k := checkpoint.Key{Workload: "x"}
	c.Put(k, &checkpoint.Set{})
	if set, err := c.Get(k); set != nil || err != nil || c.Contains(k) || c.Store() != nil {
		t.Fatal("nil cache holds something")
	}
	w := c.Writer(k, 1, 0)
	w.Add(nil)
	w.Frame(checkpoint.ResumeFrame{})
	w.Commit(1, &checkpoint.Summary{})
	w.Suspend()
	if _, _, _, held, ok := c.MemStats(); ok || held != 0 {
		t.Fatal("nil cache reports a memory tier")
	}
}

// TestSweepCacheConcurrent drives one two-tier cache from several
// goroutines at once (run it under -race): every reader sees either a
// miss or the whole sweep, and the disk tier ends with one entry.
func TestSweepCacheConcurrent(t *testing.T) {
	p := genProg(t, "gzipx", 60_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, K: 20}
	set := capture(t, p, cfg, params)
	key := checkpoint.KeyFor(p, cfg, params)
	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := checkpoint.NewSweepCache(1, store)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				c.Put(key, set)
			}
			got, err := c.Get(key)
			if err != nil {
				t.Error(err)
				return
			}
			if got != nil && len(got.Units) != len(set.Units) {
				t.Errorf("reader saw %d of %d units", len(got.Units), len(set.Units))
			}
			c.Contains(key)
			c.MemStats()
		}(i)
	}
	wg.Wait()
	if ix, err := store.Index(); err != nil || len(ix) != 1 {
		t.Fatalf("disk tier holds %d entries (err %v), want 1", len(ix), err)
	}
}
