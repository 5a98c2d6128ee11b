package checkpoint

// Resumable sweeps: the crash-safe journal and the resume path.
//
// A functional sweep is the one serial, unsharded cost of a sampled run,
// and a cancelled run, an expired sweep lease, or a killed process must
// not throw it away. The sweep's journal is the store entry it is
// writing: one format-v4 byte stream (header, manifest, page and unit
// records) into which SetWriter interleaves Frame records (recFrame)
// that pin the exact sweep state after a captured unit — the
// captured-unit count, the stream position, the accumulated sweep time,
// and the warmer's fetch-dedup block — each sealed by a checksum over
// the whole prefix before it. Everything else a resume needs is already
// in the last captured unit: capturing a unit snapshots (or
// delta-snapshots) memory and warm state and resets both dirty journals,
// so the unit's materialization IS the sweep state at its launch point.
//
// A store writer publishes the staged stream as <hash>.partial at its
// first frame and flushes it at every later one, so a crash at any byte
// leaves a journal whose valid-frame prefix is intact; Commit appends
// the end record and installs the same file as <hash>.ckpt. The fleet's
// sweep owner writes the same stream into memory and uploads each
// journaled prefix, then the sealed whole. One scanner (scanRecords)
// reads them all: a reader of entries wants the end record, a reader of
// journals the longest prefix ending in a frame consistent with the
// units before it, so truncation or bit corruption degrades to an
// earlier frame or a cold start — never to a wrong resume.
//
// CaptureResumable is the one resume loop: it continues CaptureStream
// from a loaded journal (Params.Resume), which replays the boundary
// generator over the journaled units (validating each against the plan),
// rebuilds the sweep CPU from the last unit's arch state and
// materialized memory, restores the warmed structures, and carries on
// fast-forward + capture from the journaled instruction count. The
// continued unit stream is bit-identical to the tail of an uninterrupted
// sweep.

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/functional"
	"repro/internal/program"
	"repro/internal/uarch"
)

// partialExt names the on-disk partial-sweep journal of a key; the
// committed entry keeps storeExt, and the index/LRU (which glob only
// storeExt) never see journals.
const partialExt = ".partial"

// ResumeFrame is the sweep-side state pinned immediately after one
// captured unit: together with the units captured so far it is
// everything a resumed CaptureStream needs to continue bit-identically.
// Params.OnFrame observes one per captured unit; SetWriter.Frame
// journals them at its cadence.
type ResumeFrame struct {
	// Captured is the number of units captured up to and including this
	// frame's unit.
	Captured int
	// SweepInsts is the stream position at the frame — the last unit's
	// launch point, where the resumed CPU restarts.
	SweepInsts uint64
	// SweepTime is the wall-clock sweep cost accumulated so far.
	SweepTime time.Duration
	// HaveIBlock/LastIBlock journal the warmer's consecutive-fetch dedup
	// state (uarch.Warmer.FetchBlock); restoring warm state without it
	// would issue one extra warm fetch after resume and skew the warmed
	// LRU stamps off the uninterrupted sweep.
	HaveIBlock bool
	LastIBlock uint64
}

// ResumeState is a reconstructed partial sweep: the journaled units
// plus the frame they were journaled at. Feed it to CaptureResumable
// via Params.Resume, which emits the journaled units first. (Given to
// CaptureStream itself, the already-captured units are not re-emitted,
// and the consumer must account for them.)
type ResumeState struct {
	// Units holds the journaled units in capture order, delta chains
	// intact.
	Units []*Unit
	// PopulationUnits echoes the journal's manifest.
	PopulationUnits uint64
	// SweepInsts, SweepTime, HaveIBlock, and LastIBlock mirror the
	// ResumeFrame the journal was cut at (Captured == len(Units)).
	SweepInsts uint64
	SweepTime  time.Duration
	HaveIBlock bool
	LastIBlock uint64
}

// resumeSweep rebuilds the sweep execution state from a journaled
// partial: it replays gen over the journaled units (validating that the
// journal belongs to exactly this plan) and returns the CPU positioned
// at the journaled instruction count, with machine/warmer (when
// warming) restored to the last unit's warm state.
func resumeSweep(prog *program.Program, machine *uarch.Machine, warmer *uarch.Warmer, gen *boundaryGen, rs *ResumeState) (*functional.CPU, error) {
	for i, u := range rs.Units {
		b, ok := gen.next()
		if !ok || b.unit != u.Index || b.start != u.Start || b.launch != u.LaunchAt {
			return nil, fmt.Errorf("checkpoint: resume: journaled unit %d (population unit %d @%d) does not match the plan", i, u.Index, u.LaunchAt)
		}
	}
	last := rs.Units[len(rs.Units)-1]
	if last.Arch.Count != rs.SweepInsts {
		return nil, fmt.Errorf("checkpoint: resume: journaled position %d does not match last unit's launch %d", rs.SweepInsts, last.Arch.Count)
	}
	launch, err := last.Materialize()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: resume: %w", err)
	}
	if machine != nil {
		if launch.Warm == nil {
			return nil, fmt.Errorf("checkpoint: resume: journal carries no warm state for a warmed plan")
		}
		if err := machine.Hier.Restore(launch.Warm.Hier); err != nil {
			return nil, fmt.Errorf("checkpoint: resume: %w", err)
		}
		if err := machine.Pred.Restore(launch.Warm.Pred); err != nil {
			return nil, fmt.Errorf("checkpoint: resume: %w", err)
		}
		warmer.SetFetchBlock(rs.LastIBlock, rs.HaveIBlock)
	}
	// NewMemory shares the materialized image copy-on-write with the
	// journaled units, exactly as the uninterrupted sweep's memory
	// shared pages with the units it had captured.
	return functional.NewAt(prog, last.Arch, launch.Mem.NewMemory()), nil
}

func (s *Store) partialPath(k Key) string {
	return filepath.Join(s.dir, k.Hash()+partialExt)
}

// LoadPartial returns the partial sweep journaled under k to continue
// from (pass it to CaptureResumable via Params.Resume), or nil when the
// store holds no usable journal: absent or corrupt — corruption degrades
// to the journal's last valid frame before giving up entirely, and is
// logged, never an error.
//
//simlint:noctx bounded single-file metadata read; no long blocking
func (s *Store) LoadPartial(k Key) (*ResumeState, error) {
	path := s.partialPath(k)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("checkpoint: load partial: %w", err)
	}
	defer f.Close()
	rs, err := readPartial(f, k)
	if err != nil {
		s.Log("checkpoint store: discarding unusable partial %s: %v", filepath.Base(path), err)
		return nil, nil
	}
	s.Log("checkpoint store: partial hit %s (%s: %d units, resume at inst %d)",
		k.Hash(), k.Workload, len(rs.Units), rs.SweepInsts)
	return rs, nil
}

// DropPartial removes k's partial-sweep journal, if any — called once
// the completed sweep arrived and the journal has nothing left to add.
func (s *Store) DropPartial(k Key) {
	os.Remove(s.partialPath(k))
}

// ReadPartial returns the bytes of k's journal file as they are, or nil
// when there is none. The caller validates them (DecodePartial).
//
//simlint:noctx bounded single-file read; no long blocking
func (s *Store) ReadPartial(k Key) ([]byte, error) {
	data, err := os.ReadFile(s.partialPath(k))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read partial: %w", err)
	}
	return data, nil
}

// WritePartial atomically installs journal — bytes a SetWriter
// published, such as a fleet sweep owner's upload — as k's journal,
// replacing any previous one.
//
//simlint:noctx bounded single-file atomic install; no long blocking
func (s *Store) WritePartial(k Key, journal []byte) error {
	tmp, err := os.CreateTemp(s.dir, k.Hash()+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: write partial: %w", err)
	}
	_, err = tmp.Write(journal)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.partialPath(k))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: write partial: %w", err)
	}
	return nil
}

// frame appends one recFrame record sealing the units written so far:
// the resume frame's scalars plus the keyframe ordinals accumulated to
// this point — the same index the end record's recKeyIdx carries,
// validated by the reader against the units it actually decoded.
func (e *setEncoder) frame(fr ResumeFrame) error {
	have := uint64(0)
	if fr.HaveIBlock {
		have = 1
	}
	for _, v := range []uint64{recFrame, uint64(fr.Captured), fr.SweepInsts,
		uint64(int64(fr.SweepTime)), have, fr.LastIBlock} {
		if err := e.cw.u64(v); err != nil {
			return err
		}
	}
	if err := e.cw.u64s(e.keyframes); err != nil {
		return err
	}
	e.frames++
	// Seal the cumulative prefix under this frame. Each frame's checksum
	// covers every byte since the manifest — including earlier frames and
	// their checksums, which folded into the running sum as ordinary u64
	// fields — so a reader verifying frame n has verified the whole
	// prefix it would resume from.
	return e.cw.u64(uint64(e.cw.sum()))
}

// DecodePartial reads a journal byte stream — a SetWriter's published
// prefix or a whole frame-bearing entry — and reconstructs the
// ResumeState at its last valid frame, guarded by the expected key like
// DecodeSet. Corruption degrades to the longest valid-frame prefix; a
// stream with no valid frame is an error.
func DecodePartial(r io.Reader, k Key) (*ResumeState, error) {
	rs, err := readPartial(r, k)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: decode partial: %w", err)
	}
	return rs, nil
}

// readPartial scans a journal and returns the state at its last valid
// frame. Unlike an entry — where any defect fails the whole stream — a
// defect here (truncation mid-record, a frame disagreeing with the
// decoded units, an unknown tag) only ends the scan: the journal is by
// construction a prefix of a crashed write, so everything before the
// last good frame is still a correct, older resume point.
func readPartial(r io.Reader, k Key) (*ResumeState, error) {
	cr, man, err := readKeyedHeader(r, k)
	if err != nil {
		return nil, err
	}
	if _, last, _ := scanRecords(cr, man); last != nil { //simlint:discard a journal keeps its last valid frame whatever ended the scan
		return last, nil
	}
	return nil, fmt.Errorf("no usable frame")
}

// Journal is where CaptureResumable writes a sweep: a *SetWriter (a
// store entry or an in-memory buffer) or a *SweepWriter (a sweep
// cache's tiers). Add takes each unit, Frame each resume frame; errors
// are the writer's to keep, and the sweep goes on without them.
type Journal interface {
	Add(*Unit) error
	Frame(ResumeFrame) error
}

// frame returns the resume frame the journal was cut at.
func (rs *ResumeState) frame() ResumeFrame {
	return ResumeFrame{Captured: len(rs.Units), SweepInsts: rs.SweepInsts, SweepTime: rs.SweepTime,
		HaveIBlock: rs.HaveIBlock, LastIBlock: rs.LastIBlock}
}

// CaptureResumable is CaptureStream made resumable and journaled, the
// one resume loop of the engine and the fleet sweep owner. p.Resume,
// when set, is the journal to continue (Store.LoadPartial,
// DecodePartial): once CaptureStream has validated it, its units are
// emitted and added to j ahead of the first new unit, with their frame,
// so j's first frame supersedes the journal it continues. A journal that
// fails validation before anything was emitted is ignored and the sweep
// runs cold. Each captured unit is emitted and then, when emit accepts
// it, added to j; each frame goes to j (which journals it at its
// cadence) and then to p.OnFrame. emit returning false stops the sweep
// as in CaptureStream, and a cancelled ctx returns ctx.Err() wherever it
// stops the sweep, the journaled units included. The caller ends j: a
// complete summary is ready to commit, anything else to suspend.
func CaptureResumable(ctx context.Context, prog *program.Program, cfg uarch.Config, p Params, j Journal, emit func(*Unit) bool) (*Summary, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rs := p.Resume
	fed := rs == nil
	var feedErr error // why feed stopped early, when ctx stopped it
	feed := func() bool {
		fed = true
		for _, u := range rs.Units {
			if feedErr = ctx.Err(); feedErr != nil || !emit(u) {
				return false
			}
			j.Add(u)
		}
		j.Frame(rs.frame())
		return true
	}
	onFrame := p.OnFrame
	p.OnFrame = func(fr ResumeFrame) {
		j.Frame(fr)
		if onFrame != nil {
			onFrame(fr)
		}
	}
	capture := func(u *Unit) bool {
		if !fed && !feed() {
			return false
		}
		if !emit(u) {
			return false
		}
		j.Add(u)
		return true
	}
	sum, err := CaptureStream(ctx, prog, cfg, p, capture)
	if err != nil && !fed && ctx.Err() == nil {
		// The journal did not validate against this plan (corruption, a
		// stale upload): degrade to a cold sweep rather than fail a run a
		// cold sweep can still complete.
		p.Resume, fed = nil, true
		sum, err = CaptureStream(ctx, prog, cfg, p, capture)
	}
	if err == nil && sum.Complete && !fed && !feed() {
		// The journal already covered every boundary, and the consumer
		// stopped while taking its units.
		sum.Complete = false
	}
	if err == nil && feedErr != nil {
		// Cancelled while feeding the journaled units: end as
		// CaptureStream ends on cancellation, so no caller mistakes the
		// cut stream for an early stop.
		err = feedErr
	}
	return sum, err
}
