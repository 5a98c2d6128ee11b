package checkpoint_test

import (
	"context"
	"encoding/binary"

	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/program"
	"repro/internal/uarch"
)

// TestStoreRoundTrip saves a captured set and reloads it, requiring the
// reloaded units to be indistinguishable from the originals (geometry,
// arch state, memory contents, warm state).
func TestStoreRoundTrip(t *testing.T) {
	p := genProg(t, "gccx", 300_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 2000, K: 40, J: 0, FunctionalWarm: true}
	set := capture(t, p, cfg, params)

	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := checkpoint.KeyFor(p, cfg, params)
	if err := store.Save(key, set); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if loaded == nil {
		t.Fatal("saved set not found")
	}
	if len(loaded.Units) != len(set.Units) {
		t.Fatalf("loaded %d units, saved %d", len(loaded.Units), len(set.Units))
	}
	if loaded.PopulationUnits != set.PopulationUnits || loaded.SweepInsts != set.SweepInsts {
		t.Fatalf("sweep accounting lost: %+v vs %+v", loaded.PopulationUnits, set.PopulationUnits)
	}
	for i := range set.Units {
		unitsEqual(t, "roundtrip", loaded.Units[i], set.Units[i])
	}
	if hits, misses := store.Stats(); hits != 1 || misses != 0 {
		t.Fatalf("stats: %d hits %d misses, want 1/0", hits, misses)
	}
}

// TestStoreKeyDiscrimination verifies that every key ingredient
// invalidates: a different plan geometry, warming mode, or hierarchy
// shape misses, while a machine config differing only in timing/width
// hits the same entry.
func TestStoreKeyDiscrimination(t *testing.T) {
	p := genProg(t, "gzipx", 100_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 20, J: 0, FunctionalWarm: true}
	key := checkpoint.KeyFor(p, cfg, params)

	// Same plan on a timing-only variant of the machine: same key.
	timingOnly := cfg
	timingOnly.Lat.Mem = 300
	timingOnly.FetchWidth = 4
	timingOnly.MispredictPenalty = 20
	if got := checkpoint.KeyFor(p, timingOnly, params); got.Hash() != key.Hash() {
		t.Fatal("timing-only config change must not invalidate checkpoints")
	}

	// Different hierarchy geometry: different key.
	if got := checkpoint.KeyFor(p, uarch.Config16Way(), params); got.Hash() == key.Hash() {
		t.Fatal("hierarchy geometry change must invalidate checkpoints")
	}

	// Plan variations: different keys.
	for _, vary := range []func(*checkpoint.Params){
		func(q *checkpoint.Params) { q.U = 500 },
		func(q *checkpoint.Params) { q.W = 2000 },
		func(q *checkpoint.Params) { q.K = 10 },
		func(q *checkpoint.Params) { q.J = 1 },
		func(q *checkpoint.Params) { q.Offsets = []uint64{0, 1} },
		func(q *checkpoint.Params) { q.FunctionalWarm = false },
		func(q *checkpoint.Params) { q.MaxUnits = 5 },
	} {
		q := params
		vary(&q)
		if checkpoint.KeyFor(p, cfg, q).Hash() == key.Hash() {
			t.Fatalf("plan variation %+v did not change the key", q)
		}
	}

	// Cold captures carry no warm signature: any two configs share.
	cold := params
	cold.FunctionalWarm = false
	a := checkpoint.KeyFor(p, uarch.Config8Way(), cold)
	b := checkpoint.KeyFor(p, uarch.Config16Way(), cold)
	if a.Hash() != b.Hash() {
		t.Fatal("cold captures must reuse across all machine configs")
	}

	// Different workload content: different key.
	p2 := genProg(t, "gzipx", 200_000)
	if checkpoint.KeyFor(p2, cfg, params).Hash() == key.Hash() {
		t.Fatal("program content change must invalidate checkpoints")
	}
}

// TestStoreVersionAndCorruption verifies unusable files degrade to
// misses, never errors.
func TestStoreVersionAndCorruption(t *testing.T) {
	p := genProg(t, "gzipx", 100_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, K: 20, J: 0}
	set := capture(t, p, cfg, params)

	dir := t.TempDir()
	store, err := checkpoint.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := checkpoint.KeyFor(p, cfg, params)
	if err := store.Save(key, set); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want 1 store file, got %v (%v)", entries, err)
	}

	data, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}

	// Only the writer's format version is read: an older (v3) or newer
	// (v5) header is a miss, never an error — the store is a cache, and
	// the cost is one re-sweep. The same holds for partial journals.
	withVersion := func(b []byte, v uint32) []byte {
		b = append([]byte(nil), b...)
		binary.LittleEndian.PutUint32(b[8:12], v)
		return b
	}
	for _, v := range []uint32{3, 5} {
		if err := os.WriteFile(entries[0], withVersion(data, v), 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := store.Load(key); err != nil || got != nil {
			t.Fatalf("v%d entry must be a miss (got set=%v err=%v)", v, got != nil, err)
		}
	}
	jparams := params
	jparams.Keyframe = 1 // a resume frame after every unit
	journalSweep(t, p, cfg, jparams, store, key, nil, 3)
	partial := filepath.Join(dir, key.Hash()+".partial")
	journal, err := os.ReadFile(partial)
	if err != nil {
		t.Fatal(err)
	}
	if rs, err := store.LoadPartial(key); err != nil || rs == nil {
		t.Fatalf("intact journal unusable (rs=%v err=%v)", rs != nil, err)
	}
	for _, v := range []uint32{3, 5} {
		if err := os.WriteFile(partial, withVersion(journal, v), 0o644); err != nil {
			t.Fatal(err)
		}
		if rs, err := store.LoadPartial(key); err != nil || rs != nil {
			t.Fatalf("v%d journal must be a miss (got state=%v err=%v)", v, rs != nil, err)
		}
	}

	// Truncate the file: load must report a miss.
	if err := os.WriteFile(entries[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := store.Load(key)
	if err != nil {
		t.Fatalf("corrupt entry must be a miss, got error %v", err)
	}
	if got != nil {
		t.Fatal("corrupt entry must be a miss, got a set")
	}

	// Bad magic: also a miss.
	bad := append([]byte("XXXXXXXX"), data[8:]...)
	if err := os.WriteFile(entries[0], bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := store.Load(key); err != nil || got != nil {
		t.Fatalf("bad-magic entry must be a miss (got set=%v err=%v)", got != nil, err)
	}
}

// TestStoreCorruptDeltaChains sweeps truncation points and single-byte
// flips across a delta-encoded entry — including points inside delta
// records and the keyframe index — in both shapes an entry is written:
// frame-free (Save) and frame-bearing (a journaled sweep's commit, cut
// also at every frame boundary). Truncations and splices must degrade
// to a store miss (no error, no panic, never a silently short set);
// byte flips must either miss or load into a set whose every unit
// still materializes without panicking.
func TestStoreCorruptDeltaChains(t *testing.T) {
	p := genProg(t, "gccx", 400_000)
	cfg := uarch.Config8Way()
	// Small keyframe interval so the file interleaves keyframes and
	// delta chains; K=8 gives ~50 units.
	params := checkpoint.Params{U: 1000, W: 1000, K: 8, FunctionalWarm: true, Keyframe: 4}
	set := capture(t, p, cfg, params)
	if len(set.Units) < 10 {
		t.Fatalf("want >= 10 units, got %d", len(set.Units))
	}

	dir := t.TempDir()
	store, err := checkpoint.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := checkpoint.KeyFor(p, cfg, params)
	if err := store.Save(key, set); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key.Hash()+".ckpt")
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	framed, bounds := journaledEntry(t, p, cfg, params, key)

	for _, in := range []struct {
		name string
		data []byte
		cuts []int
	}{
		{"saved", saved, nil},
		{"journaled", framed, func() (at []int) {
			for _, b := range bounds {
				at = append(at, b.at)
			}
			return at
		}()},
	} {
		data := in.data
		// Truncations at 40 points through the file (mid-chain truncation
		// lands inside delta records for most of them), plus the input's
		// frame boundaries.
		cuts := in.cuts
		for i := 1; i < 40; i++ {
			cuts = append(cuts, len(data)*i/40)
		}
		for _, cut := range cuts {
			if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := store.Load(key)
			if err != nil {
				t.Fatalf("%s: truncation at %d bytes: got error %v, want miss", in.name, cut, err)
			}
			if got != nil {
				t.Fatalf("%s: truncation at %d bytes: got a set, want miss", in.name, cut)
			}
		}

		// Deleting a span from the middle (splicing records) must miss
		// too — the unit count or keyframe index will disagree.
		spliced := append(append([]byte(nil), data[:len(data)/3]...), data[len(data)/3+1024:]...)
		if err := os.WriteFile(path, spliced, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := store.Load(key); err != nil || got != nil {
			t.Fatalf("%s: spliced entry: (set=%v err=%v), want miss", in.name, got != nil, err)
		}

		// Byte flips at 60 points through the file, including inside
		// intact delta records. A flip in structural fields (lengths,
		// block indices, RAS top) must be rejected at load; whatever Load
		// returns, materializing every unit must never panic or index out
		// of range.
		for i := 0; i < 60; i++ {
			off := 12 + (len(data)-13)*i/60 // past magic+version: header flips are covered above
			mut := append([]byte(nil), data...)
			mut[off] ^= 0x5a
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := store.Load(key)
			if err != nil {
				t.Fatalf("%s: flip at %d: got error %v, want miss or load", in.name, off, err)
			}
			if got == nil {
				continue
			}
			for u := range got.Units {
				if _, err := got.Materialize(u); err != nil {
					t.Fatalf("%s: flip at %d: loaded set failed to materialize unit %d: %v", in.name, off, u, err)
				}
			}
		}

		// Restore the intact file: it must load again (the sweep above
		// must not have poisoned anything).
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := store.Load(key)
		if err != nil || loaded == nil || len(loaded.Units) != len(set.Units) {
			t.Fatalf("%s: intact entry failed to load after corruption sweep: %v", in.name, err)
		}
		for i := range set.Units {
			unitsEqual(t, in.name+" post-sweep", loaded.Units[i], set.Units[i])
		}
	}
}

// TestStoreWritersOfOneKey: two writers of one key in one directory
// each publish a journal; each Commit installs its own complete entry
// and neither removes the other's journal or installs it as the entry.
func TestStoreWritersOfOneKey(t *testing.T) {
	p := genProg(t, "gzipx", 200_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 10, FunctionalWarm: true, Keyframe: 2}
	set := capture(t, p, cfg, params)
	key := checkpoint.KeyFor(p, cfg, params)
	dir := t.TempDir()
	store, err := checkpoint.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// feed adds units [from, to) to w, offering a frame after each.
	feed := func(w *checkpoint.SetWriter, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			u := set.Units[i]
			if err := w.Add(u); err != nil {
				t.Fatal(err)
			}
			if err := w.Frame(checkpoint.ResumeFrame{Captured: i + 1, SweepInsts: u.Arch.Count}); err != nil {
				t.Fatal(err)
			}
		}
	}
	journal := func() int {
		t.Helper()
		rs, err := store.LoadPartial(key)
		if err != nil {
			t.Fatal(err)
		}
		if rs == nil {
			return 0
		}
		return len(rs.Units)
	}
	loads := func(what string) {
		t.Helper()
		got, err := store.Load(key)
		if err != nil || got == nil || len(got.Units) != len(set.Units) {
			t.Fatalf("%s: entry does not load complete (set=%v err=%v)", what, got != nil, err)
		}
		for i := range set.Units {
			unitsEqual(t, what, got.Units[i], set.Units[i])
		}
	}
	n := len(set.Units)
	for _, firstCommits := range []string{"older", "newer"} {
		a, err := store.Writer(key, set.PopulationUnits, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := store.Writer(key, set.PopulationUnits, 1)
		if err != nil {
			t.Fatal(err)
		}
		fed := map[*checkpoint.SetWriter]int{a: 5, b: 3}
		feed(a, 0, fed[a]) // a publishes its journal ...
		feed(b, 0, fed[b]) // ... and b replaces it with its own
		if got := journal(); got != fed[b] {
			t.Fatalf("journal holds %d units, want b's %d", got, fed[b])
		}
		first, second := a, b
		if firstCommits == "newer" {
			first, second = b, a
		}
		feed(first, fed[first], n)
		if err := first.Commit(set.SweepInsts, set.SweepTime); err != nil {
			t.Fatal(err)
		}
		loads(firstCommits + " writer's commit")
		// b's journal outlives a's commit; b's own commit removes it.
		want := fed[b]
		if first == b {
			want = 0
		}
		if got := journal(); got != want {
			t.Fatalf("after the %s writer commits, the journal holds %d units, want %d", firstCommits, got, want)
		}
		feed(second, fed[second], n)
		if err := second.Commit(set.SweepInsts, set.SweepTime); err != nil {
			t.Fatal(err)
		}
		loads("second commit")
		if got := journal(); got != 0 {
			t.Fatalf("a journal of %d units survived both commits", got)
		}
		if err := os.Remove(filepath.Join(dir, key.Hash()+".ckpt")); err != nil {
			t.Fatal(err)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(left) != 0 {
		t.Fatalf("committed writers left staged files: %v", left)
	}
}

// TestStoreIndexAndEviction covers the store lifecycle satellite: the
// index enumerates committed entries with sizes and keys, Load hits
// refresh recency, and an LRU byte cap evicts the oldest entries on
// commit — never the entry just committed.
func TestStoreIndexAndEviction(t *testing.T) {
	cfg := uarch.Config8Way()
	dir := t.TempDir()
	store, err := checkpoint.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	progs := []*program.Program{
		genProg(t, "gzipx", 100_000),
		genProg(t, "mcfx", 100_000),
		genProg(t, "gccx", 100_000),
	}
	params := checkpoint.Params{U: 1000, K: 50, FunctionalWarm: true}
	keys := make([]checkpoint.Key, len(progs))
	var entrySize int64
	for i, p := range progs {
		set := capture(t, p, cfg, params)
		keys[i] = checkpoint.KeyFor(p, cfg, params)
		if err := store.Save(keys[i], set); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond) // order LastUsed stamps
	}
	idx, err := store.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 3 {
		t.Fatalf("index lists %d entries, want 3", len(idx))
	}
	for _, e := range idx {
		if e.Bytes <= 0 || e.Key == "" || e.Units == 0 {
			t.Fatalf("incomplete index entry: %+v", e)
		}
		entrySize = e.Bytes
	}

	// Touch the oldest entry so it becomes the most recently used.
	if set, err := store.Load(keys[0]); err != nil || set == nil {
		t.Fatalf("reload failed: %v", err)
	}
	time.Sleep(10 * time.Millisecond)

	// Cap the store at roughly two entries and commit a fourth: the two
	// least recently used (keys[1], keys[2]) must be evicted.
	store.MaxBytes = 2*entrySize + entrySize/2
	p4 := genProg(t, "ammpx", 100_000)
	set4 := capture(t, p4, cfg, params)
	key4 := checkpoint.KeyFor(p4, cfg, params)
	if err := store.Save(key4, set4); err != nil {
		t.Fatal(err)
	}

	idx, err = store.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 {
		t.Fatalf("index lists %d entries after eviction, want 2", len(idx))
	}
	for _, want := range []struct {
		key checkpoint.Key
		hit bool
	}{
		{keys[0], true}, {keys[1], false}, {keys[2], false}, {key4, true},
	} {
		set, err := store.Load(want.key)
		if err != nil {
			t.Fatal(err)
		}
		if got := set != nil; got != want.hit {
			t.Fatalf("entry %s: hit=%v, want %v", want.key.Hash(), got, want.hit)
		}
	}

	// A rebuilt index (file deleted) still sees the surviving entries.
	if err := os.Remove(filepath.Join(dir, checkpoint.IndexName)); err != nil {
		t.Fatal(err)
	}
	idx, err = store.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 {
		t.Fatalf("rebuilt index lists %d entries, want 2", len(idx))
	}
	for _, e := range idx {
		if e.Key == "" {
			t.Fatalf("rebuilt index entry lost its key: %+v", e)
		}
	}
}

// TestStoreStreamingWriter exercises the SetWriter path the pipelined
// engine uses: units are added one at a time during the sweep and the
// entry becomes visible only after Commit.
func TestStoreStreamingWriter(t *testing.T) {
	p := genProg(t, "mcfx", 200_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 25, J: 2, FunctionalWarm: true}
	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := checkpoint.KeyFor(p, cfg, params)

	var w *checkpoint.SetWriter
	sum, err := checkpoint.CaptureStream(context.Background(), p, cfg, params, func(u *checkpoint.Unit) bool {
		if w == nil {
			var werr error
			w, werr = store.Writer(key, p.Length/params.U, 0)
			if werr != nil {
				t.Fatal(werr)
			}
			// Entry must not be visible while staged.
			if got, _ := store.Load(key); got != nil {
				t.Fatal("staged entry visible before Commit")
			}
		}
		if err := w.Add(u); err != nil {
			t.Fatal(err)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Complete || w == nil {
		t.Fatalf("sweep incomplete (%+v)", sum)
	}
	if err := w.Commit(sum.SweepInsts, sum.SweepTime); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if loaded == nil || len(loaded.Units) != sum.Captured {
		t.Fatalf("reload after streamed save failed (%v)", loaded)
	}

	// A writer suspended before its first frame leaves nothing behind.
	w2, err := store.Writer(key, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Add(loaded.Units[0]); err != nil {
		t.Fatal(err)
	}
	if err := w2.Suspend(); err != nil {
		t.Fatal(err)
	}
	leftovers, _ := filepath.Glob(filepath.Join(store.Dir(), "*.tmp-*"))
	partials, _ := filepath.Glob(filepath.Join(store.Dir(), "*.partial"))
	if len(leftovers)+len(partials) != 0 {
		t.Fatalf("a writer suspended unjournaled left files: %v %v", leftovers, partials)
	}
}
