package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/uarch"
)

// Store file format: an 8-byte magic, a little-endian uint32 format
// version, a length-prefixed gob-encoded storeManifest, then a sequence
// of raw little-endian records (see codec.go) terminated by an End
// record carrying the sweep totals. Files whose magic, version, or
// manifest key do not match the request are treated as misses (never as
// errors), so bumping storeVersion — or any change to the key
// derivation — safely invalidates every existing checkpoint file.
// Entries are uncompressed by design: loading must beat re-sweeping,
// and the dominant payloads (tag arrays, LRU stamps, memory pages) are
// cheap to rewrite but expensive to push through a codec.
//
// Version 2 added delta-encoded warm snapshots: unit records carry a
// warm-encoding kind (none/full/delta), delta units hold dirty-block
// deltas chained off the preceding full "keyframe" unit, and a keyframe
// index record before the End record enumerates the keyframe ordinals
// so truncated or spliced chains are detected at load.
//
// Version 3 extends the same delta discipline to memory, collapsing the
// codec's ad-hoc per-unit page table into the shared chain code path:
// unit records carry a memory-encoding kind (full/delta), delta units
// list only the pages dirtied since the preceding unit (mem.Delta from
// the dirty-page journal), keyframes carry the full page table, and
// memory and warm state keyframe together — the keyframe index now
// guards both chains. Delta records also serialize their dirty-block
// grain, so retuning the granularity never invalidates stored chains.
// Version 4 seals every entry with a CRC-32C: the codec primitives
// fold each record byte into a running checksum (codec.go) and the end
// record is followed by the writer's final sum as a trailing uint64.
// Resume frame records may precede the end record: a frame seals the
// cumulative prefix before it the same way, so one byte stream is both
// a sweep's crash-safe journal (cut after any frame) and, once the end
// record lands, its committed entry (see SetWriter and resume.go).
// Store.Save and EncodeSet write frame-free entries. The magic and
// version themselves stay outside the sum — they are validated
// byte-for-byte instead. Structural validation catches truncation and
// splicing; the checksum closes the remaining gap — single-bit rot
// inside an opaque payload (a 4KiB page, a predictor table) that still
// parses. Only v4 is read: the store is a cache, so an entry or journal
// of any other version is a miss that costs one re-sweep. Corruption
// anywhere — including mid-chain or in a frame — degrades to a miss
// too.
const (
	storeVersion = 4
	storeExt     = ".ckpt"
)

var storeMagic = [8]byte{'S', 'M', 'R', 'T', 'C', 'K', 'P', 'T'}

// Key identifies one captured Set on disk. Two runs share a key — and
// therefore a functional sweep — exactly when they execute the same
// workload under the same sampling geometry and the same warm-relevant
// machine shape. Timing, pipeline-width, and energy parameters are
// deliberately excluded: they change what the detailed replay measures,
// not what the sweep captures, so machine configs differing only in
// those reuse one sweep.
//
//simlint:keystruct String
type Key struct {
	// Workload is the program name; ProgramHash fingerprints its exact
	// code, initial image, entry, and length, so regenerating a workload
	// differently invalidates its checkpoints.
	Workload    string
	ProgramHash string
	// U, W, K, Offsets, and MaxUnits fix the launch boundaries.
	U, W, K  uint64
	Offsets  []uint64
	MaxUnits int
	// FunctionalWarm, Components, and WarmSig fix what the sweep warms
	// and the geometry of the warmed structures. WarmSig is empty for
	// cold captures, which therefore reuse across every machine config.
	FunctionalWarm bool
	Components     uarch.WarmComponents
	WarmSig        string
	// SweepSegments and SweepOverlap identify a speculative parallel
	// sweep's cold-start geometry: segments after the first carry warm
	// state accumulated only over their own span plus the overlap, so
	// warmed parallel captures are not interchangeable with serial ones
	// (or with different segmentations) and key separately. Both are
	// zero for serial or unwarmed captures — unwarmed parallel sweeps
	// are bit-identical to serial, so they share the serial entry.
	SweepSegments int
	SweepOverlap  int64
}

// KeyFor derives the store key for capturing prog with p on cfg.
func KeyFor(prog *program.Program, cfg uarch.Config, p Params) Key {
	k := Key{
		Workload:       prog.Name,
		ProgramHash:    programHash(prog),
		U:              p.U,
		W:              p.W,
		K:              p.K,
		Offsets:        p.offsets(),
		MaxUnits:       p.MaxUnits,
		FunctionalWarm: p.FunctionalWarm,
	}
	if p.FunctionalWarm {
		k.Components = uarch.AllComponents
		if p.Components != nil {
			k.Components = *p.Components
		}
		k.WarmSig = WarmSignature(cfg)
		if p.sweepSegments() > 1 {
			k.SweepSegments = p.sweepSegments()
			k.SweepOverlap = p.sweepOverlap()
		}
	}
	return k
}

// WarmSignature summarizes the machine-config fields a functional sweep
// depends on: cache, TLB, and predictor geometry. Configs with equal
// signatures observe identical warm state from one stream, so their
// checkpoints are interchangeable.
func WarmSignature(cfg uarch.Config) string {
	return fmt.Sprintf("il1=%dx%db%d dl1=%dx%db%d l2=%dx%db%d itlb=%d dtlb=%d tlbw=%d bp=%d/%d/%dx%d/%d",
		cfg.IL1.Sets, cfg.IL1.Ways, cfg.IL1.BlockBits,
		cfg.DL1.Sets, cfg.DL1.Ways, cfg.DL1.BlockBits,
		cfg.L2.Sets, cfg.L2.Ways, cfg.L2.BlockBits,
		cfg.ITLBEntries, cfg.DTLBEntries, cfg.TLBWays,
		cfg.BPred.TableEntries, cfg.BPred.HistoryBits,
		cfg.BPred.BTBSets, cfg.BPred.BTBWays, cfg.BPred.RASEntries)
}

// programHash fingerprints the program via its canonical serialization.
func programHash(prog *program.Program) string {
	h := sha256.New()
	if err := prog.Save(h); err != nil {
		// Save into a hash cannot fail for a valid program; fall back to
		// a name-only fingerprint that still keys distinct workloads.
		return "unsaved:" + prog.Name
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// String renders the canonical key text the content address is derived
// from.
func (k Key) String() string {
	s := fmt.Sprintf("%s@%s u=%d w=%d k=%d j=%v max=%d warm=%v comp=%+v sig=%q",
		k.Workload, k.ProgramHash, k.U, k.W, k.K, k.Offsets, k.MaxUnits,
		k.FunctionalWarm, k.Components, k.WarmSig)
	// Appended only for warmed parallel sweeps, so every pre-existing
	// serial key text — and therefore every stored entry's content
	// address — is unchanged.
	if k.SweepSegments > 1 {
		s += fmt.Sprintf(" pseg=%d pov=%d", k.SweepSegments, k.SweepOverlap)
	}
	return s
}

// Hash returns the content address: the hex SHA-256 of the canonical
// key text, truncated to 32 characters for filename friendliness.
func (k Key) Hash() string {
	sum := sha256.Sum256([]byte(k.String()))
	return hex.EncodeToString(sum[:])[:32]
}

// Store is an on-disk checkpoint cache: captured Sets keyed by Key,
// one file per key under dir. All methods are safe for concurrent use;
// writers stage into a temp file and commit with an atomic rename.
type Store struct {
	dir string

	// Logf, when set, receives one line per store event (hit, miss,
	// save, discard) so sweep reuse is observable from the CLIs.
	Logf func(format string, args ...any)

	// MaxBytes, when positive, caps the total size of committed entries:
	// each commit evicts least-recently-used entries (per the index's
	// LastUsed, refreshed on hits) until the store fits. Set it before
	// sharing the store across goroutines. See index.go.
	MaxBytes int64

	mu           sync.Mutex
	hits, misses uint64
}

// OpenStore opens (creating if needed) a checkpoint store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns the lifetime hit/miss counts.
func (s *Store) Stats() (hits, misses uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// Log emits one line through Logf when set, so logging stays optional.
func (s *Store) Log(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Store) path(k Key) string {
	return filepath.Join(s.dir, k.Hash()+storeExt)
}

// Contains reports whether a committed entry file exists for k. It does
// not validate the entry (Load still treats corruption as a miss); the
// disk tier of SweepCache.Contains and SweepCache.Put's save-if-absent
// rest on it.
func (s *Store) Contains(k Key) bool {
	_, err := os.Stat(s.path(k))
	return err == nil
}

func (s *Store) countHit(hit bool) {
	s.mu.Lock()
	if hit {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
}

// storeManifest opens a checkpoint file; the embedded key guards
// against hash collisions and stale derivations.
type storeManifest struct {
	Key             Key
	PopulationUnits uint64
}

// readManifest decodes the length-prefixed gob manifest that follows
// the file header.
func readManifest(cr *codecReader) (*storeManifest, error) {
	blob, err := cr.bytes()
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	var man storeManifest
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&man); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	return &man, nil
}

// Load returns the Set stored under k, or nil when the store has no
// usable entry (absent, format-version mismatch, key mismatch, or
// corruption — all count as misses; corruption is logged). The returned
// Set's SweepInsts/SweepTime echo the original sweep's cost; the caller
// decides how to account for having skipped it.
//
//simlint:noctx bounded single-file read; a hit is far cheaper than the sweep it replaces
func (s *Store) Load(k Key) (*Set, error) {
	path := s.path(k)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			s.countHit(false)
			s.Log("checkpoint store: miss %s (%s)", k.Hash(), k.Workload)
			return nil, nil
		}
		return nil, fmt.Errorf("checkpoint: store load: %w", err)
	}
	defer f.Close()

	set, err := readSet(f, k)
	if err != nil {
		s.countHit(false)
		s.Log("checkpoint store: discarding unusable entry %s: %v", filepath.Base(path), err)
		return nil, nil
	}
	s.countHit(true)
	s.noteUse(k.Hash())
	s.Log("checkpoint store: hit %s (%s: %d units, %d sweep insts reused)",
		k.Hash(), k.Workload, len(set.Units), set.SweepInsts)
	return set, nil
}

// readHeader consumes the magic, version, and manifest of an entry or
// partial journal, returning the codec reader positioned at the first
// record. The magic and version are read directly (outside the CRC),
// so the checksum covers exactly the bytes the codec primitives
// produced.
func readHeader(r io.Reader) (*codecReader, *storeManifest, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, nil, fmt.Errorf("short header: %w", err)
	}
	if magic != storeMagic {
		return nil, nil, fmt.Errorf("bad magic %q", magic[:])
	}
	var version uint32
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return nil, nil, err
	}
	if version != storeVersion {
		return nil, nil, fmt.Errorf("format version %d, want %d", version, storeVersion)
	}
	cr := newCodecReader(r)
	man, err := readManifest(cr)
	if err != nil {
		return nil, nil, err
	}
	return cr, man, nil
}

// readKeyedHeader is readHeader for a reader that must hold key k.
func readKeyedHeader(r io.Reader, k Key) (*codecReader, *storeManifest, error) {
	cr, man, err := readHeader(r)
	if err != nil {
		return nil, nil, err
	}
	if man.Key.String() != k.String() {
		return nil, nil, fmt.Errorf("key mismatch: stored %s", man.Key)
	}
	return cr, man, nil
}

func readSet(r io.Reader, k Key) (*Set, error) {
	cr, man, err := readKeyedHeader(r, k)
	if err != nil {
		return nil, err
	}
	set, _, err := scanRecords(cr, man)
	return set, err
}

// scanRecords is the one reader of the record stream after a header,
// for committed entries and journals alike. Every frame is verified
// where it appears — its seal over the prefix before it, its unit
// count, and its keyframe list — and the last one that verifies is
// returned as last (nil when none did). set is non-nil only when the
// stream ends in a valid end record; err says why it does not. An entry
// reader wants set, a journal reader the longest valid prefix: last.
func scanRecords(cr *codecReader, man *storeManifest) (set *Set, last *ResumeState, err error) {
	var pages []*[mem.PageSize]byte
	var units []*Unit
	var prev *Unit         // previously decoded unit (the delta chain predecessor)
	var geom warmGeom      // geometry established by the last keyframe
	var keyframes []uint64 // ordinals of keyframe units, for index validation
	var keyIdx []uint64    // the stream's keyframe index record, when present
	sawKeyIdx := false
	// matches checks a keyframe list recorded in the stream against the
	// units actually decoded; a mismatch means records were lost or
	// spliced.
	matches := func(list []uint64) error {
		if len(list) != len(keyframes) {
			return fmt.Errorf("keyframe index lists %d keyframes, decoded %d", len(list), len(keyframes))
		}
		for i, ord := range list {
			if ord != keyframes[i] {
				return fmt.Errorf("keyframe index mismatch at %d: %d vs %d", i, ord, keyframes[i])
			}
		}
		return nil
	}
	// seal checks the checksum field that closes a frame or the stream:
	// it covers every byte the codec read before it.
	seal := func() error {
		expect := cr.sum()
		stored, err := cr.u64()
		if err != nil {
			return fmt.Errorf("checksum: %w", err)
		}
		if uint32(stored) != expect {
			return fmt.Errorf("checksum mismatch: stored %08x, computed %08x", uint32(stored), expect)
		}
		return nil
	}
	for {
		tag, err := cr.u64()
		if err != nil {
			return nil, last, fmt.Errorf("record: %w", err)
		}
		switch tag {
		case recPage:
			page, err := cr.bytes()
			if err != nil {
				return nil, last, err
			}
			if len(page) != mem.PageSize {
				return nil, last, fmt.Errorf("page record of %d bytes", len(page))
			}
			pages = append(pages, (*[mem.PageSize]byte)(page))
		case recUnit:
			u, err := cr.unit(pages, prev, &geom)
			if err != nil {
				return nil, last, err
			}
			// The keyframe index lists full-snapshot units: memory
			// keyframes, which warm state keyframes with.
			if u.Mem != nil {
				keyframes = append(keyframes, uint64(len(units)))
			}
			prev = u
			units = append(units, u)
		case recFrame:
			var vals [5]uint64
			for i := range vals {
				if vals[i], err = cr.u64(); err != nil {
					return nil, last, err
				}
			}
			list, err := cr.u64s()
			if err != nil {
				return nil, last, err
			}
			if err := seal(); err != nil {
				return nil, last, fmt.Errorf("frame: %w", err)
			}
			if vals[0] != uint64(len(units)) {
				return nil, last, fmt.Errorf("frame at %d units, decoded %d", vals[0], len(units))
			}
			if err := matches(list); err != nil {
				return nil, last, fmt.Errorf("frame: %w", err)
			}
			if n := len(units); n > 0 {
				last = &ResumeState{
					Units:           units[:n:n],
					PopulationUnits: man.PopulationUnits,
					SweepInsts:      vals[1],
					SweepTime:       time.Duration(int64(vals[2])),
					HaveIBlock:      vals[3] != 0,
					LastIBlock:      vals[4],
				}
			}
		case recKeyIdx:
			if sawKeyIdx {
				return nil, last, fmt.Errorf("unexpected keyframe index record")
			}
			if keyIdx, err = cr.u64s(); err != nil {
				return nil, last, err
			}
			sawKeyIdx = true
		case recEnd:
			var vals [3]uint64
			for i := range vals {
				if vals[i], err = cr.u64(); err != nil {
					return nil, last, err
				}
			}
			if vals[0] != uint64(len(units)) {
				return nil, last, fmt.Errorf("truncated: %d of %d units", len(units), vals[0])
			}
			if !sawKeyIdx {
				return nil, last, fmt.Errorf("missing keyframe index")
			}
			if err := matches(keyIdx); err != nil {
				return nil, last, err
			}
			if err := seal(); err != nil {
				return nil, last, err
			}
			return &Set{Units: units, K: man.Key.K, PopulationUnits: man.PopulationUnits,
				SweepInsts: vals[1], SweepTime: time.Duration(int64(vals[2]))}, last, nil
		default:
			return nil, last, fmt.Errorf("unknown record tag %d", tag)
		}
	}
}

// setEncoder writes one entry's byte stream (header, manifest, page and
// unit records, resume frames, keyframe index, end record) to any
// io.Writer. It is the shared encoding core of SetWriter and of
// EncodeSet, the wire form the distributed service ships sweeps with —
// both produce the format-v4 byte stream, EncodeSet without frames.
type setEncoder struct {
	cw *codecWriter
	// table is the running reconstruction of the stream's current page
	// table (page number → array) and ids maps its arrays to their page-
	// record ids. Keyframes replace the table; deltas overlay it. Pages
	// the stream has replaced drop out, so the encoder's footprint stays
	// bounded by the live footprint — it must not pin the whole stream
	// in the pipelined engine — while pages shared copy-on-write across
	// any span of units are written exactly once (sharing is contiguous
	// in stream time).
	table    map[uint64]*[mem.PageSize]byte
	ids      map[*[mem.PageSize]byte]uint64
	nextPage uint64
	units    int
	// prevUnit is the last unit written: a delta unit is only encodable
	// as a delta when its chain predecessor is exactly this unit (the
	// reader rebuilds chains from record order). Units arriving out of
	// chain order — e.g. an offset sub-set whose deltas point at units
	// of other offsets — are materialized and written as full keyframes
	// instead.
	prevUnit *Unit
	// keyframes holds the ordinals of full-snapshot units for the
	// keyframe index record finish emits (and every frame repeats).
	keyframes []uint64
	frames    int // frame records written
}

// newSetEncoder writes the header and manifest for an entry keyed by k
// and returns the encoder for its records.
func newSetEncoder(w io.Writer, k Key, pop uint64) (*setEncoder, error) {
	if _, err := w.Write(storeMagic[:]); err != nil {
		return nil, err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(storeVersion)); err != nil {
		return nil, err
	}
	e := &setEncoder{
		cw:    newCodecWriter(w),
		table: make(map[uint64]*[mem.PageSize]byte),
		ids:   make(map[*[mem.PageSize]byte]uint64),
	}
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(storeManifest{Key: k, PopulationUnits: pop}); err != nil {
		return nil, err
	}
	if err := e.cw.bytes(blob.Bytes()); err != nil {
		return nil, err
	}
	return e, nil
}

// SetWriter streams one sweep into one format-v4 byte stream as its
// units are captured: the staged store entry and, once the sweep offers
// resume frames, its crash-safe journal are the same bytes, and each
// unit is encoded once. Frame seals the records written so far under a
// resume frame — the writer's first frame, then one per resumeInterval
// keyframes — and publishes the stream; Commit appends the keyframe
// index, the end record and the checksum. Errors are sticky.
//
// A store writer (Store.Writer) stages the stream in a temp file of its
// own. Its first frame publishes the file as <hash>.partial: a hard link
// renamed into place, so journal and staged entry stay one file and a
// crash at any byte leaves a journal whose frame prefix is intact
// (without hard links, a copy renewed at every journaled frame).
// Commit renames the staged file to <hash>.ckpt and removes the journal
// only while it is still this writer's (os.SameFile), so a concurrent
// writer of the same key keeps the journal it published meanwhile.
// Suspend ends an interrupted sweep: it journals the last frame offered
// and keeps the journal; a writer that journaled nothing leaves nothing
// behind. Exactly one of Commit and Suspend must be called.
//
// A buffer writer (BufferWriter) keeps the stream in memory and hands
// every published prefix to a callback; after Commit, Bytes is the
// whole entry.
type SetWriter struct {
	enc   *setEncoder
	err   error
	every int          // journal cadence in keyframes; 0 never journals
	kfAt  int          // keyframes written when the last frame was journaled
	held  *ResumeFrame // the last frame offered, until it is journaled

	// Store writers.
	store   *Store
	key     Key
	f       *os.File
	journal os.FileInfo // the published <hash>.partial, nil until the first frame
	copied  bool        // the journal is a copy: the store has no hard links

	// Buffer writers.
	buf     *bytes.Buffer
	publish func(journal []byte)
}

// DefaultResumeInterval is the journal cadence a zero resumeInterval
// selects: one frame every 4 keyframes keeps the journal I/O a small
// fraction of capture while bounding the sweep an interruption loses to
// a few keyframe intervals of units.
const DefaultResumeInterval = 4

func newSetWriter(w io.Writer, k Key, pop uint64, resumeInterval int) (*SetWriter, error) {
	enc, err := newSetEncoder(w, k, pop)
	if err != nil {
		return nil, err
	}
	sw := &SetWriter{enc: enc, every: resumeInterval, key: k}
	switch {
	case resumeInterval == 0:
		sw.every = DefaultResumeInterval
	case resumeInterval < 0:
		sw.every = 0
	}
	return sw, nil
}

// Writer stages a new store entry for k. pop is the workload's
// population size in units (Summary.PopulationUnits). resumeInterval is
// the journal cadence in keyframes (0 selects DefaultResumeInterval; a
// negative value never journals).
//
//simlint:noctx opens a staging temp file; writes stream under the caller's ctx
func (s *Store) Writer(k Key, pop uint64, resumeInterval int) (*SetWriter, error) {
	tmp, err := os.CreateTemp(s.dir, k.Hash()+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("checkpoint: store writer: %w", err)
	}
	w, err := newSetWriter(tmp, k, pop, resumeInterval)
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("checkpoint: store writer: %w", err)
	}
	w.store, w.f = s, tmp
	return w, nil
}

// BufferWriter is Writer over memory: the stream accumulates in a buffer,
// and publish (when non-nil) receives the stream after each journaled
// frame. The slice is only valid until the next call on the writer.
func BufferWriter(k Key, pop uint64, resumeInterval int, publish func(journal []byte)) *SetWriter {
	buf := new(bytes.Buffer)
	w, _ := newSetWriter(buf, k, pop, resumeInterval) //simlint:discard writes to a bytes.Buffer cannot fail
	w.buf, w.publish = buf, publish
	return w
}

// Bytes returns a buffer writer's stream as written so far — after
// Commit, the complete entry — or nil for a store writer.
func (w *SetWriter) Bytes() []byte {
	if w.buf == nil {
		return nil
	}
	return w.buf.Bytes()
}

// fail records err and ends the staged file. A journal already
// published is kept: its frame prefix is intact whatever the staged tail
// holds.
func (w *SetWriter) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	w.closeFile()
	return w.err
}

// closeFile closes the staged file and removes its temp name.
func (w *SetWriter) closeFile() {
	if w.f != nil {
		w.f.Close()
		os.Remove(w.f.Name())
		w.f = nil
	}
}

// dropJournal removes <hash>.partial while it is still the journal this
// writer published.
func (w *SetWriter) dropJournal() {
	if w.journal == nil {
		return
	}
	path := w.store.partialPath(w.key)
	if fi, err := os.Stat(path); err == nil && os.SameFile(fi, w.journal) {
		os.Remove(path)
	}
	w.journal = nil
}

// page ensures data has a page record, writing one on first sight, and
// returns its id.
func (e *setEncoder) page(data *[mem.PageSize]byte) (uint64, error) {
	if id, ok := e.ids[data]; ok {
		return id, nil
	}
	id := e.nextPage
	e.nextPage++
	if err := e.cw.u64(recPage); err != nil {
		return 0, err
	}
	if err := e.cw.bytes(data[:]); err != nil {
		return 0, err
	}
	e.ids[data] = id
	return id, nil
}

// add appends one unit's records.
//
// A unit is written as a delta exactly when it carries a memory delta
// extending the previously written unit — the only chain shape the
// reader can rebuild from record order. Anything else (keyframes,
// out-of-order units from an offset sub-set) is materialized and
// written as a full keyframe.
func (e *setEncoder) add(u *Unit) error {
	if u.MemDelta != nil && u.Warm == nil && u.Prev == e.prevUnit && e.prevUnit != nil {
		// Chain-aligned delta unit: write only the dirty pages.
		nums := u.MemDelta.Nums
		refs := make([]uint64, len(nums))
		for i, data := range u.MemDelta.Pages {
			id, err := e.page(data)
			if err != nil {
				return err
			}
			refs[i] = id
			if old, ok := e.table[nums[i]]; ok && old != data {
				delete(e.ids, old)
			}
			e.table[nums[i]] = data
		}
		if err := e.cw.u64(recUnit); err != nil {
			return err
		}
		if err := e.cw.unit(u, memDelta, nums, refs, nil, u.Delta); err != nil {
			return err
		}
		e.prevUnit = u
		e.units++
		return nil
	}

	// Full keyframe: the unit's own snapshots, or — for delta units that
	// cannot extend the written chain — their materialization.
	img, warm := u.Mem, u.Warm
	if img == nil || (u.Warm == nil && u.Delta != nil) {
		launch, err := u.Materialize()
		if err != nil {
			return err
		}
		img, warm = launch.Mem, launch.Warm
	}
	var nums, refs []uint64
	var encErr error
	table := make(map[uint64]*[mem.PageSize]byte, img.PageCount())
	ids := make(map[*[mem.PageSize]byte]uint64, img.PageCount())
	img.VisitPages(func(num uint64, data *[mem.PageSize]byte) {
		if encErr != nil {
			return
		}
		id, err := e.page(data)
		if err != nil {
			encErr = err
			return
		}
		table[num] = data
		ids[data] = id
		nums = append(nums, num)
		refs = append(refs, id)
	})
	if encErr != nil {
		return encErr
	}
	// Replace the running table: pages the stream no longer maps drop
	// their ids, keeping the dedup window at the live footprint.
	e.table, e.ids = table, ids
	if err := e.cw.u64(recUnit); err != nil {
		return err
	}
	if err := e.cw.unit(u, memFull, nums, refs, warm, nil); err != nil {
		return err
	}
	e.keyframes = append(e.keyframes, uint64(e.units))
	e.prevUnit = u
	e.units++
	return nil
}

// finish seals the record stream with the keyframe index, the end
// record carrying the sweep totals, and a flush of the encoder's
// buffer.
func (e *setEncoder) finish(sweepInsts uint64, sweepTime time.Duration) error {
	if err := e.cw.u64(recKeyIdx); err != nil {
		return err
	}
	if err := e.cw.u64s(e.keyframes); err != nil {
		return err
	}
	for _, v := range []uint64{recEnd, uint64(e.units), sweepInsts, uint64(int64(sweepTime))} {
		if err := e.cw.u64(v); err != nil {
			return err
		}
	}
	// Seal the entry: snapshot the running CRC before writing the field,
	// so the reader's pre-field snapshot computes the same sum.
	if err := e.cw.u64(uint64(e.cw.sum())); err != nil {
		return err
	}
	return e.cw.w.Flush()
}

// Add appends one unit. Errors are sticky; after the first, Add becomes
// a no-op returning the same error, and Commit will refuse. See
// setEncoder.add for the delta-versus-keyframe discipline.
func (w *SetWriter) Add(u *Unit) error {
	if w.err != nil {
		return w.err
	}
	if err := w.enc.add(u); err != nil {
		return w.fail(err)
	}
	return nil
}

// Frame offers the sweep state after the units added so far (fr.Captured
// must count them). The writer journals the first frame it is offered
// and then one per cadence of keyframes; any other frame is held for
// Suspend. A writer without a cadence ignores frames.
func (w *SetWriter) Frame(fr ResumeFrame) error {
	if w.err != nil || w.every == 0 {
		return w.err
	}
	w.held = &fr
	if w.enc.frames == 0 || len(w.enc.keyframes)-w.kfAt >= w.every {
		return w.seal()
	}
	return nil
}

// seal journals the held frame: the frame record is appended, the
// stream flushed, and the first frame publishes it.
func (w *SetWriter) seal() error {
	if w.err != nil || w.held == nil {
		return w.err
	}
	fr := *w.held
	w.held = nil
	if fr.Captured != w.enc.units {
		return w.fail(fmt.Errorf("checkpoint: frame at %d units, %d written", fr.Captured, w.enc.units))
	}
	if err := w.enc.frame(fr); err != nil {
		return w.fail(err)
	}
	if err := w.enc.cw.w.Flush(); err != nil {
		return w.fail(err)
	}
	w.kfAt = len(w.enc.keyframes)
	switch {
	case w.buf != nil:
		if w.publish != nil {
			w.publish(w.buf.Bytes())
		}
	case w.journal == nil || w.copied:
		if err := w.publishJournal(); err != nil {
			// The entry is still good; only the journal is lost.
			w.store.Log("checkpoint store: not journaling %s: %v", w.key.Hash(), err)
			w.every = 0
		}
	}
	return nil
}

// publishJournal installs the staged file as the key's journal: a hard
// link under a temp name, renamed over <hash>.partial so a reader never
// sees a half-installed journal. On a filesystem without hard links
// (some network, FUSE and shared-folder mounts) it publishes a copy of
// the flushed stream instead, renewed at every journaled frame: resume
// still works, at the cost of one copy per frame.
func (w *SetWriter) publishJournal() error {
	tmp := w.f.Name() + ".link"
	if w.copied || hardLink(w.f.Name(), tmp) != nil {
		if err := copyFile(tmp, w.f.Name()); err != nil {
			os.Remove(tmp)
			return err
		}
		w.copied = true
	}
	fi, err := os.Stat(tmp)
	if err == nil {
		err = os.Rename(tmp, w.store.partialPath(w.key))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	w.journal = fi
	return nil
}

// hardLink is os.Link; tests replace it to model a filesystem without
// hard links.
var hardLink = os.Link

// copyFile writes a copy of the file src to dst.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	_, err = io.Copy(out, in)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

// Commit seals the entry with the sweep totals. A store writer installs
// it atomically under the key's content address and removes its own
// journal, which the entry supersedes.
func (w *SetWriter) Commit(sweepInsts uint64, sweepTime time.Duration) error {
	if w.err != nil {
		return w.err
	}
	if err := w.enc.finish(sweepInsts, sweepTime); err != nil {
		return w.fail(err)
	}
	if w.f == nil {
		return nil // a buffer writer
	}
	name := w.f.Name()
	err := w.f.Close()
	w.f = nil
	if err == nil {
		err = os.Rename(name, w.store.path(w.key))
	}
	if err != nil {
		os.Remove(name)
		w.err = err
		return err
	}
	w.dropJournal()
	w.store.Log("checkpoint store: saved %s (%s: %d units)", w.key.Hash(), w.key.Workload, w.enc.units)
	w.store.noteCommit(w.key.Hash(), w.key.String(), w.enc.units)
	return nil
}

// Suspend ends an interrupted sweep: the last frame offered is
// journaled, and a store writer's journal stays for a later resume. A
// writer that journaled nothing leaves nothing behind, so Suspend is
// also how a staged entry is discarded.
func (w *SetWriter) Suspend() error {
	w.seal()
	if w.journal != nil && w.err == nil {
		w.store.Log("checkpoint store: journaled partial %s (%s: %d units)",
			w.key.Hash(), w.key.Workload, w.enc.units)
	}
	w.closeFile()
	err := w.err
	if w.err == nil {
		w.err = fmt.Errorf("checkpoint: store write suspended")
	}
	return err
}

// Save writes an already-collected Set under k, frame-free (the
// streaming path uses Writer directly).
func (s *Store) Save(k Key, set *Set) error {
	w, err := s.Writer(k, set.PopulationUnits, -1)
	if err != nil {
		return err
	}
	for _, u := range set.Units {
		if err := w.Add(u); err != nil {
			return err
		}
	}
	return w.Commit(set.SweepInsts, set.SweepTime)
}
