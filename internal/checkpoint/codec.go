package checkpoint

// Raw little-endian record codec for the checkpoint store. Snapshots
// are dominated by fixed-width arrays (cache tag/LRU arrays, predictor
// tables, 4KiB memory pages), so the store writes them as raw
// little-endian runs instead of a reflective encoding: loading a warm
// set must beat re-running the functional sweep even at small workload
// scales, and generic codecs (gob, even with fast compression) lose
// that race by an order of magnitude on these shapes.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/functional"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/uarch"
)

// Record tags.
const (
	recPage   = 1 // one 4KiB page, referenced by arrival order
	recUnit   = 2 // one captured unit
	recEnd    = 3 // terminator carrying the sweep totals
	recKeyIdx = 4 // keyframe index: ordinals of keyframe units
	recFrame  = 5 // resume frame sealing the prefix before it (resume.go)
)

// Warm-state encodings inside a unit record.
const (
	warmNone  = 0 // cold capture: no warm state
	warmFull  = 1 // full snapshot (keyframe)
	warmDelta = 2 // dirty-block delta against the previous warm unit
)

// Memory encodings inside a unit record.
const (
	memFull  = 1 // full page table (keyframe)
	memDelta = 2 // dirty-page delta against the previous unit
)

// castagnoli is the CRC-32C polynomial table shared by the store
// checksums (format v4+) and the dist layer's wire digests. Castagnoli
// has hardware support on every platform Go targets seriously, so the
// checksum costs a fraction of the I/O it guards.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// codecWriter wraps the output stream with the scratch buffer the
// fixed-width runs are staged through. Every record byte flows through
// the five primitives below, which fold it into a running CRC-32C; the
// store seals each record span (committed set, resume frame) with the
// running sum so single-bit corruption anywhere in the payload —
// including inside a 4KiB page, which structural validation cannot
// see — surfaces as a decode error instead of a wrong result.
type codecWriter struct {
	w       *bufio.Writer
	scratch []byte
	crc     uint32
}

func newCodecWriter(w io.Writer) *codecWriter {
	return &codecWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// sum returns the CRC-32C of every byte written through the primitives
// so far. The sealed checksum field is itself written via u64, so it
// folds into the running sum identically on both sides — required for
// partial journals, whose frames checksum a cumulative prefix.
func (c *codecWriter) sum() uint32 { return c.crc }

func (c *codecWriter) u64(v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	c.crc = crc32.Update(c.crc, castagnoli, b[:])
	_, err := c.w.Write(b[:])
	return err
}

func (c *codecWriter) u64s(v []uint64) error {
	if err := c.u64(uint64(len(v))); err != nil {
		return err
	}
	need := len(v) * 8
	if cap(c.scratch) < need {
		c.scratch = make([]byte, need)
	}
	buf := c.scratch[:need]
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[i*8:], x)
	}
	c.crc = crc32.Update(c.crc, castagnoli, buf)
	_, err := c.w.Write(buf)
	return err
}

func (c *codecWriter) u32s(v []uint32) error {
	if err := c.u64(uint64(len(v))); err != nil {
		return err
	}
	need := len(v) * 4
	if cap(c.scratch) < need {
		c.scratch = make([]byte, need)
	}
	buf := c.scratch[:need]
	for i, x := range v {
		binary.LittleEndian.PutUint32(buf[i*4:], x)
	}
	c.crc = crc32.Update(c.crc, castagnoli, buf)
	_, err := c.w.Write(buf)
	return err
}

func (c *codecWriter) bytes(v []byte) error {
	if err := c.u64(uint64(len(v))); err != nil {
		return err
	}
	c.crc = crc32.Update(c.crc, castagnoli, v)
	_, err := c.w.Write(v)
	return err
}

func (c *codecWriter) bools(v []bool) error {
	if err := c.u64(uint64(len(v))); err != nil {
		return err
	}
	need := len(v)
	if cap(c.scratch) < need {
		c.scratch = make([]byte, need)
	}
	buf := c.scratch[:need]
	for i, x := range v {
		if x {
			buf[i] = 1
		} else {
			buf[i] = 0
		}
	}
	c.crc = crc32.Update(c.crc, castagnoli, buf)
	_, err := c.w.Write(buf)
	return err
}

// codecReader mirrors codecWriter — including the running CRC-32C over
// every byte read through the primitives. maxLen bounds every length
// prefix in BYTES of decoded payload so corrupt files fail fast instead
// of attempting huge allocations.
type codecReader struct {
	r       *bufio.Reader
	scratch []byte
	crc     uint32
}

const maxLen = 1 << 28

func newCodecReader(r io.Reader) *codecReader {
	return &codecReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// sum mirrors codecWriter.sum: the CRC-32C of every byte consumed so
// far. Snapshot it immediately before reading a sealed checksum field
// to get the value the writer sealed.
func (c *codecReader) sum() uint32 { return c.crc }

func (c *codecReader) u64() (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(c.r, b[:]); err != nil {
		return 0, err
	}
	c.crc = crc32.Update(c.crc, castagnoli, b[:])
	return binary.LittleEndian.Uint64(b[:]), nil
}

// length reads a count prefix whose elements are elemBytes wide each,
// rejecting counts whose decoded payload would exceed maxLen bytes.
func (c *codecReader) length(elemBytes int) (int, error) {
	n, err := c.u64()
	if err != nil {
		return 0, err
	}
	if n > maxLen/uint64(elemBytes) {
		return 0, fmt.Errorf("unreasonable length %d", n)
	}
	return int(n), nil
}

func (c *codecReader) u64s() ([]uint64, error) {
	n, err := c.length(8)
	if err != nil {
		return nil, err
	}
	need := n * 8
	if cap(c.scratch) < need {
		c.scratch = make([]byte, need)
	}
	buf := c.scratch[:need]
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return nil, err
	}
	c.crc = crc32.Update(c.crc, castagnoli, buf)
	v := make([]uint64, n)
	for i := range v {
		v[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return v, nil
}

func (c *codecReader) u32s() ([]uint32, error) {
	n, err := c.length(4)
	if err != nil {
		return nil, err
	}
	need := n * 4
	if cap(c.scratch) < need {
		c.scratch = make([]byte, need)
	}
	buf := c.scratch[:need]
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return nil, err
	}
	c.crc = crc32.Update(c.crc, castagnoli, buf)
	v := make([]uint32, n)
	for i := range v {
		v[i] = binary.LittleEndian.Uint32(buf[i*4:])
	}
	return v, nil
}

func (c *codecReader) bytes() ([]byte, error) {
	n, err := c.length(1)
	if err != nil {
		return nil, err
	}
	v := make([]byte, n)
	if _, err := io.ReadFull(c.r, v); err != nil {
		return nil, err
	}
	c.crc = crc32.Update(c.crc, castagnoli, v)
	return v, nil
}

func (c *codecReader) bools() ([]bool, error) {
	n, err := c.length(1)
	if err != nil {
		return nil, err
	}
	if cap(c.scratch) < n {
		c.scratch = make([]byte, n)
	}
	buf := c.scratch[:n]
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return nil, err
	}
	c.crc = crc32.Update(c.crc, castagnoli, buf)
	v := make([]bool, n)
	for i := range v {
		v[i] = buf[i] != 0
	}
	return v, nil
}

// writeCacheState emits one cache/TLB snapshot.
func (c *codecWriter) cacheState(s *cache.State) error {
	if err := c.u64(s.Stamp); err != nil {
		return err
	}
	if err := c.u64s(s.Tags); err != nil {
		return err
	}
	if err := c.bools(s.Valid); err != nil {
		return err
	}
	if err := c.bools(s.Dirty); err != nil {
		return err
	}
	return c.u64s(s.LastUsed)
}

func (c *codecReader) cacheState() (*cache.State, error) {
	s := &cache.State{}
	var err error
	if s.Stamp, err = c.u64(); err != nil {
		return nil, err
	}
	if s.Tags, err = c.u64s(); err != nil {
		return nil, err
	}
	if s.Valid, err = c.bools(); err != nil {
		return nil, err
	}
	if s.Dirty, err = c.bools(); err != nil {
		return nil, err
	}
	if s.LastUsed, err = c.u64s(); err != nil {
		return nil, err
	}
	return s, nil
}

func (c *codecWriter) predState(s *bpred.State) error {
	for _, b := range [][]uint8{s.Bimodal, s.Gshare, s.Chooser} {
		if err := c.bytes(b); err != nil {
			return err
		}
	}
	if err := c.u64(s.History); err != nil {
		return err
	}
	for _, u := range [][]uint64{s.BTBTags, s.BTBTgts, s.BTBLRU, s.RAS} {
		if err := c.u64s(u); err != nil {
			return err
		}
	}
	if err := c.bools(s.BTBValid); err != nil {
		return err
	}
	if err := c.u64(s.BTBStamp); err != nil {
		return err
	}
	return c.u64(uint64(int64(s.RASTop)))
}

func (c *codecReader) predState() (*bpred.State, error) {
	s := &bpred.State{}
	var err error
	if s.Bimodal, err = c.bytes(); err != nil {
		return nil, err
	}
	if s.Gshare, err = c.bytes(); err != nil {
		return nil, err
	}
	if s.Chooser, err = c.bytes(); err != nil {
		return nil, err
	}
	if s.History, err = c.u64(); err != nil {
		return nil, err
	}
	if s.BTBTags, err = c.u64s(); err != nil {
		return nil, err
	}
	if s.BTBTgts, err = c.u64s(); err != nil {
		return nil, err
	}
	if s.BTBLRU, err = c.u64s(); err != nil {
		return nil, err
	}
	if s.RAS, err = c.u64s(); err != nil {
		return nil, err
	}
	if s.BTBValid, err = c.bools(); err != nil {
		return nil, err
	}
	if s.BTBStamp, err = c.u64(); err != nil {
		return nil, err
	}
	top, err := c.u64()
	if err != nil {
		return nil, err
	}
	s.RASTop = int(int64(top))
	// Bound the stack pointer here so a corrupt entry degrades to a
	// load-time decode error (a store miss), not a replay-time failure.
	if s.RASTop < 0 || s.RASTop > len(s.RAS) {
		return nil, fmt.Errorf("RAS top %d out of range (%d entries)", s.RASTop, len(s.RAS))
	}
	return s, nil
}

// unit emits one captured unit record (tag already written by the
// caller alongside any new page records). memKind selects the memory
// encoding of the nums/refs page table (full table or dirty-page
// delta); warm, when non-nil, is written as a full snapshot, warmD as a
// dirty-block delta, neither as a cold unit. The store writer resolves
// which combination a unit gets — including re-keyframing delta units
// whose predecessor is not the previously written unit (a chain the
// reader could not rebuild).
func (c *codecWriter) unit(u *Unit, memKind uint64, nums, refs []uint64, warm *WarmState, warmD *uarch.WarmDelta) error {
	for _, v := range []uint64{u.Index, u.Start, u.LaunchAt} {
		if err := c.u64(v); err != nil {
			return err
		}
	}
	arch := u.Arch
	if err := c.u64s(arch.Regs[:]); err != nil {
		return err
	}
	if err := c.u64(u.Arch.PC); err != nil {
		return err
	}
	if err := c.u64(u.Arch.Count); err != nil {
		return err
	}
	halted := uint64(0)
	if u.Arch.Halted {
		halted = 1
	}
	if err := c.u64(halted); err != nil {
		return err
	}
	if err := c.u64(memKind); err != nil {
		return err
	}
	if err := c.u64s(nums); err != nil {
		return err
	}
	if err := c.u64s(refs); err != nil {
		return err
	}
	switch {
	case warm != nil:
		if err := c.u64(warmFull); err != nil {
			return err
		}
		return c.warmState(warm)
	case warmD != nil:
		if err := c.u64(warmDelta); err != nil {
			return err
		}
		return c.warmDelta(warmD)
	}
	return c.u64(warmNone)
}

// warmState emits one full warm snapshot.
func (c *codecWriter) warmState(w *WarmState) error {
	for _, s := range []*cache.State{
		w.Hier.IL1, w.Hier.DL1, w.Hier.L2,
		w.Hier.ITLB, w.Hier.DTLB,
	} {
		if err := c.cacheState(s); err != nil {
			return err
		}
	}
	return c.predState(w.Pred)
}

// cacheDelta emits one dirty-block cache/TLB delta. The grain is
// serialized, so stored chains survive granularity retuning.
func (c *codecWriter) cacheDelta(d *cache.Delta) error {
	if err := c.u64(uint64(d.N)); err != nil {
		return err
	}
	if err := c.u64(uint64(d.Grain)); err != nil {
		return err
	}
	if err := c.u64(d.Stamp); err != nil {
		return err
	}
	if err := c.u32s(d.Blocks); err != nil {
		return err
	}
	if err := c.u64s(d.Tags); err != nil {
		return err
	}
	if err := c.bools(d.Valid); err != nil {
		return err
	}
	if err := c.bools(d.Dirty); err != nil {
		return err
	}
	return c.u64s(d.LastUsed)
}

func (c *codecReader) cacheDelta() (*cache.Delta, error) {
	d := &cache.Delta{}
	n, err := c.u64()
	if err != nil {
		return nil, err
	}
	if n > maxLen {
		return nil, fmt.Errorf("unreasonable delta geometry %d", n)
	}
	d.N = int(n)
	grain, err := c.u64()
	if err != nil {
		return nil, err
	}
	if grain > 30 {
		return nil, fmt.Errorf("unreasonable delta grain %d", grain)
	}
	d.Grain = uint8(grain)
	if d.Stamp, err = c.u64(); err != nil {
		return nil, err
	}
	if d.Blocks, err = c.u32s(); err != nil {
		return nil, err
	}
	if d.Tags, err = c.u64s(); err != nil {
		return nil, err
	}
	if d.Valid, err = c.bools(); err != nil {
		return nil, err
	}
	if d.Dirty, err = c.bools(); err != nil {
		return nil, err
	}
	if d.LastUsed, err = c.u64s(); err != nil {
		return nil, err
	}
	return d, nil
}

// predDelta emits one dirty-block predictor delta, grains included.
func (c *codecWriter) predDelta(d *bpred.Delta) error {
	if err := c.u64(uint64(d.N)); err != nil {
		return err
	}
	if err := c.u64(uint64(d.BTBN)); err != nil {
		return err
	}
	if err := c.u64(uint64(d.TblGrain)); err != nil {
		return err
	}
	if err := c.u64(uint64(d.BTBGrain)); err != nil {
		return err
	}
	if err := c.u32s(d.TblBlocks); err != nil {
		return err
	}
	for _, b := range [][]uint8{d.Bimodal, d.Gshare, d.Chooser} {
		if err := c.bytes(b); err != nil {
			return err
		}
	}
	if err := c.u64(d.History); err != nil {
		return err
	}
	if err := c.u32s(d.BTBBlocks); err != nil {
		return err
	}
	for _, u := range [][]uint64{d.BTBTags, d.BTBTgts, d.BTBLRU} {
		if err := c.u64s(u); err != nil {
			return err
		}
	}
	if err := c.bools(d.BTBValid); err != nil {
		return err
	}
	if err := c.u64(d.BTBStamp); err != nil {
		return err
	}
	if err := c.u64s(d.RAS); err != nil {
		return err
	}
	return c.u64(uint64(int64(d.RASTop)))
}

func (c *codecReader) predDelta() (*bpred.Delta, error) {
	d := &bpred.Delta{}
	n, err := c.u64()
	if err != nil {
		return nil, err
	}
	btbn, err := c.u64()
	if err != nil {
		return nil, err
	}
	if n > maxLen || btbn > maxLen {
		return nil, fmt.Errorf("unreasonable delta geometry %d/%d", n, btbn)
	}
	d.N, d.BTBN = int(n), int(btbn)
	tg, err := c.u64()
	if err != nil {
		return nil, err
	}
	bg, err := c.u64()
	if err != nil {
		return nil, err
	}
	if tg > 30 || bg > 30 {
		return nil, fmt.Errorf("unreasonable delta grains %d/%d", tg, bg)
	}
	d.TblGrain, d.BTBGrain = uint8(tg), uint8(bg)
	if d.TblBlocks, err = c.u32s(); err != nil {
		return nil, err
	}
	if d.Bimodal, err = c.bytes(); err != nil {
		return nil, err
	}
	if d.Gshare, err = c.bytes(); err != nil {
		return nil, err
	}
	if d.Chooser, err = c.bytes(); err != nil {
		return nil, err
	}
	if d.History, err = c.u64(); err != nil {
		return nil, err
	}
	if d.BTBBlocks, err = c.u32s(); err != nil {
		return nil, err
	}
	if d.BTBTags, err = c.u64s(); err != nil {
		return nil, err
	}
	if d.BTBTgts, err = c.u64s(); err != nil {
		return nil, err
	}
	if d.BTBLRU, err = c.u64s(); err != nil {
		return nil, err
	}
	if d.BTBValid, err = c.bools(); err != nil {
		return nil, err
	}
	if d.BTBStamp, err = c.u64(); err != nil {
		return nil, err
	}
	if d.RAS, err = c.u64s(); err != nil {
		return nil, err
	}
	top, err := c.u64()
	if err != nil {
		return nil, err
	}
	d.RASTop = int(int64(top))
	return d, nil
}

// warmDelta emits one dirty-block warm delta (hierarchy + predictor).
// The chain linkage (Since/Seq) is implicit in record order and not
// serialized: the reader rebuilds Prev links as it goes.
func (c *codecWriter) warmDelta(d *uarch.WarmDelta) error {
	for _, cd := range []*cache.Delta{d.Hier.IL1, d.Hier.DL1, d.Hier.L2, d.Hier.ITLB, d.Hier.DTLB} {
		if err := c.cacheDelta(cd); err != nil {
			return err
		}
	}
	return c.predDelta(d.Pred)
}

func (c *codecReader) warmDelta() (*uarch.WarmDelta, error) {
	hier := &cache.HierarchyDelta{}
	var err error
	for _, dst := range []**cache.Delta{&hier.IL1, &hier.DL1, &hier.L2, &hier.ITLB, &hier.DTLB} {
		if *dst, err = c.cacheDelta(); err != nil {
			return nil, err
		}
	}
	pred, err := c.predDelta()
	if err != nil {
		return nil, err
	}
	return &uarch.WarmDelta{Hier: hier, Pred: pred}, nil
}

// warmGeom records the structure geometry of the last full snapshot so
// subsequent delta records can be validated at load time: a corrupt
// delta must surface as a decode error (and therefore a store miss),
// never as an out-of-range panic or silently wrong state at replay.
type warmGeom struct {
	il1, dl1, l2, itlb, dtlb int
	tbl, btb, ras            int
}

func geomOf(w *WarmState) warmGeom {
	return warmGeom{
		il1:  len(w.Hier.IL1.Tags),
		dl1:  len(w.Hier.DL1.Tags),
		l2:   len(w.Hier.L2.Tags),
		itlb: len(w.Hier.ITLB.Tags),
		dtlb: len(w.Hier.DTLB.Tags),
		tbl:  len(w.Pred.Bimodal),
		btb:  len(w.Pred.BTBTags),
		ras:  len(w.Pred.RAS),
	}
}

// validate checks a decoded warm delta against the chain's geometry.
func (g warmGeom) validate(d *uarch.WarmDelta) error {
	for _, pair := range []struct {
		d *cache.Delta
		n int
	}{
		{d.Hier.IL1, g.il1}, {d.Hier.DL1, g.dl1}, {d.Hier.L2, g.l2},
		{d.Hier.ITLB, g.itlb}, {d.Hier.DTLB, g.dtlb},
	} {
		if err := pair.d.Validate(pair.n); err != nil {
			return err
		}
	}
	return d.Pred.Validate(g.tbl, g.btb, g.ras)
}

// unit decodes one unit record. prev is the previously decoded unit
// (the delta chain predecessor) and geom the geometry established by
// the chain's keyframe; geom is updated when this record carries a full
// snapshot.
func (c *codecReader) unit(pages []*[mem.PageSize]byte, prev *Unit, geom *warmGeom) (*Unit, error) {
	u := &Unit{}
	var err error
	if u.Index, err = c.u64(); err != nil {
		return nil, err
	}
	if u.Start, err = c.u64(); err != nil {
		return nil, err
	}
	if u.LaunchAt, err = c.u64(); err != nil {
		return nil, err
	}
	var arch functional.ArchState
	regs, err := c.u64s()
	if err != nil {
		return nil, err
	}
	if len(regs) != isa.NumRegs {
		return nil, fmt.Errorf("unit %d: %d registers, want %d", u.Index, len(regs), isa.NumRegs)
	}
	copy(arch.Regs[:], regs)
	if arch.PC, err = c.u64(); err != nil {
		return nil, err
	}
	if arch.Count, err = c.u64(); err != nil {
		return nil, err
	}
	halted, err := c.u64()
	if err != nil {
		return nil, err
	}
	arch.Halted = halted != 0
	u.Arch = arch

	mKind, err := c.u64()
	if err != nil {
		return nil, err
	}
	nums, err := c.u64s()
	if err != nil {
		return nil, err
	}
	refs, err := c.u64s()
	if err != nil {
		return nil, err
	}
	if len(nums) != len(refs) {
		return nil, fmt.Errorf("unit %d: page table mismatch", u.Index)
	}
	resolve := func() ([]*[mem.PageSize]byte, error) {
		out := make([]*[mem.PageSize]byte, len(refs))
		for i, ref := range refs {
			if ref >= uint64(len(pages)) {
				return nil, fmt.Errorf("unit %d: page ref %d out of range", u.Index, ref)
			}
			out[i] = pages[ref]
		}
		return out, nil
	}
	switch mKind {
	case memFull:
		resolved, err := resolve()
		if err != nil {
			return nil, err
		}
		pm := make(map[uint64]*[mem.PageSize]byte, len(nums))
		for i, num := range nums {
			pm[num] = resolved[i]
		}
		u.Mem = mem.ImageFromPages(pm)
	case memDelta:
		if prev == nil {
			return nil, fmt.Errorf("unit %d: memory delta with no preceding keyframe", u.Index)
		}
		resolved, err := resolve()
		if err != nil {
			return nil, err
		}
		d := &mem.Delta{Nums: nums, Pages: resolved}
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("unit %d: %w", u.Index, err)
		}
		u.MemDelta = d
		u.Prev = prev
	default:
		return nil, fmt.Errorf("unit %d: unknown memory encoding %d", u.Index, mKind)
	}

	kind, err := c.u64()
	if err != nil {
		return nil, err
	}
	switch kind {
	case warmNone:
		return u, nil
	case warmFull:
		if u.MemDelta != nil {
			// The writer keyframes memory and warm state together; a
			// mixed unit means records were spliced.
			return nil, fmt.Errorf("unit %d: full warm state on a memory-delta unit", u.Index)
		}
		hier := &cache.HierarchyState{}
		for _, dst := range []**cache.State{&hier.IL1, &hier.DL1, &hier.L2, &hier.ITLB, &hier.DTLB} {
			if *dst, err = c.cacheState(); err != nil {
				return nil, err
			}
		}
		pred, err := c.predState()
		if err != nil {
			return nil, err
		}
		u.Warm = &WarmState{Hier: hier, Pred: pred}
		*geom = geomOf(u.Warm)
		return u, nil
	case warmDelta:
		if u.MemDelta == nil {
			return nil, fmt.Errorf("unit %d: warm delta on a memory-keyframe unit", u.Index)
		}
		// A memory delta chains off prev, so the warm delta must too.
		if prev.Warm == nil && prev.Delta == nil {
			return nil, fmt.Errorf("unit %d: warm and memory chains diverge", u.Index)
		}
		d, err := c.warmDelta()
		if err != nil {
			return nil, err
		}
		if err := geom.validate(d); err != nil {
			return nil, fmt.Errorf("unit %d: %w", u.Index, err)
		}
		u.Delta = d
		return u, nil
	}
	return nil, fmt.Errorf("unit %d: unknown warm encoding %d", u.Index, kind)
}
