package checkpoint_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/uarch"
)

// fuzzWire captures a small real sweep once and returns its key, its
// EncodeSet bytes, the frame-bearing entry a journaled sweep commits,
// and that entry cut at its last frame — a journal. This is the valid
// corpus the fuzzers mutate. Decoders must never panic: any corruption
// degrades to an error (full sets) or to the longest valid-frame
// prefix (journals).
func fuzzWire(f *testing.F) (key checkpoint.Key, wire, framed, partial []byte) {
	f.Helper()
	p := genProg(f, "gccx", 120_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 20, FunctionalWarm: true}
	set := capture(f, p, cfg, params)
	key = checkpoint.KeyFor(p, cfg, params)

	var buf bytes.Buffer
	if err := checkpoint.EncodeSet(&buf, key, set); err != nil {
		f.Fatal(err)
	}
	params.Keyframe = 2 // several frames over the sweep's few units
	framed, bounds := journaledEntry(f, p, cfg, params, key)
	return key, buf.Bytes(), framed, framed[:bounds[len(bounds)-1].at]
}

// FuzzDecodeSet feeds mutated set streams to DecodeSet: it must never
// panic, and must return either an error or a structurally sound Set.
func FuzzDecodeSet(f *testing.F) {
	key, wire, framed, partial := fuzzWire(f)
	f.Add(wire)
	f.Add(wire[:len(wire)/2])
	f.Add(wire[:16])
	f.Add(framed)
	f.Add(partial) // a journal is not a complete set
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := checkpoint.DecodeSet(bytes.NewReader(data), key)
		if err != nil {
			return
		}
		if set == nil {
			t.Fatal("DecodeSet returned nil set without error")
		}
		for i, u := range set.Units {
			if u == nil {
				t.Fatalf("decoded unit %d is nil", i)
			}
		}
	})
}

// FuzzDecodePartial feeds mutated partial-sweep journals to
// DecodePartial: it must never panic, and corruption must degrade to
// an error or to a consistent valid-frame prefix (Units matching the
// frame's captured count).
func FuzzDecodePartial(f *testing.F) {
	key, wire, framed, partial := fuzzWire(f)
	f.Add(partial)
	f.Add(partial[:len(partial)/2])
	f.Add(partial[:16])
	f.Add(framed)
	f.Add(wire) // a frame-free set stream has no frame to resume from
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := checkpoint.DecodePartial(bytes.NewReader(data), key)
		if err != nil {
			return
		}
		if rs == nil {
			t.Fatal("DecodePartial returned nil state without error")
		}
		if len(rs.Units) == 0 {
			t.Fatal("DecodePartial returned a frameless state without error")
		}
		for i, u := range rs.Units {
			if u == nil {
				t.Fatalf("decoded unit %d is nil", i)
			}
		}
	})
}

// FuzzStoreIndex writes fuzzed bytes as index.json into a store holding
// two real entries. The index is advisory, so no content may panic the
// store or hide an entry: Index must list exactly the *.ckpt files
// present, Load must still serve both entries, and a Save — which, under
// a size cap, evicts by the fuzzed recency stamps — must keep the entry
// it commits.
func FuzzStoreIndex(f *testing.F) {
	p := genProg(f, "gzipx", 40_000)
	cfg := uarch.Config8Way()
	var keys [3]checkpoint.Key
	var sets [3]*checkpoint.Set
	for j := range keys {
		params := checkpoint.Params{U: 1000, K: 20, J: uint64(j)}
		sets[j] = capture(f, p, cfg, params)
		keys[j] = checkpoint.KeyFor(p, cfg, params)
	}
	seedDir := f.TempDir()
	seed, err := checkpoint.OpenStore(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	var total int64
	for j := 0; j < 2; j++ {
		if err := seed.Save(keys[j], sets[j]); err != nil {
			f.Fatal(err)
		}
	}
	entries, err := filepath.Glob(filepath.Join(seedDir, "*.ckpt"))
	if err != nil || len(entries) != 2 {
		f.Fatalf("seed store holds %v (%v), want 2 entries", entries, err)
	}
	for _, e := range entries {
		st, err := os.Stat(e)
		if err != nil {
			f.Fatal(err)
		}
		total += st.Size()
	}
	index, err := os.ReadFile(filepath.Join(seedDir, checkpoint.IndexName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(index)
	f.Add(index[:len(index)/2])
	f.Add([]byte{})
	f.Add([]byte(`{"entries":null}`))
	f.Add([]byte(`{"entries":[{"hash":"../x","bytes":-1},{"hash":""},{"hash":"` + keys[0].Hash() + `"},{"hash":"` + keys[0].Hash() + `"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for _, e := range entries {
			// Entries are only read or removed, never rewritten in place,
			// so every iteration can share the seed store's files.
			if err := os.Link(e, filepath.Join(dir, filepath.Base(e))); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, checkpoint.IndexName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		store, err := checkpoint.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		// Room for two entries but not three: the Save below evicts.
		store.MaxBytes = total
		listed := func(label string) []string {
			t.Helper()
			ix, err := store.Index()
			if err != nil {
				t.Fatalf("%s: Index: %v", label, err)
			}
			files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			var want, got []string
			for _, f := range files {
				want = append(want, strings.TrimSuffix(filepath.Base(f), ".ckpt"))
			}
			for _, e := range ix {
				got = append(got, e.Hash)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Index lists %v, directory holds %v", label, got, want)
			}
			return got
		}
		listed("fuzzed index")
		for j := 0; j < 2; j++ {
			set, err := store.Load(keys[j])
			if err != nil || set == nil || len(set.Units) != len(sets[j].Units) {
				t.Fatalf("Load entry %d under a fuzzed index: %v, %v", j, set, err)
			}
		}
		listed("after Load")
		if err := store.Save(keys[2], sets[2]); err != nil {
			t.Fatal(err)
		}
		after := listed("after Save")
		if i := sort.SearchStrings(after, keys[2].Hash()); i == len(after) || after[i] != keys[2].Hash() {
			t.Fatalf("Save evicted the entry it committed: %v", after)
		}
		if ix, _ := store.Index(); len(ix) > 1 {
			var held int64
			for _, e := range ix {
				held += e.Bytes
			}
			if held > store.MaxBytes {
				t.Fatalf("capped store holds %d bytes over its %d cap after Save", held, store.MaxBytes)
			}
		}
	})
}
