package checkpoint

import "sync"

// SweepCache holds complete capture sweeps under their Key in up to two
// tiers — an in-memory LRU tier in front of an on-disk Store — and is
// the one place the policy between them lives. Only complete sweeps
// belong here (the caller checks Summary.Complete): an early-terminated
// capture would poison every later request with a truncated population.
// Sets cross the boundary as shallow copies (Set.Clone): callers own
// what Get returns and keep what they Put; the units stay shared and
// read-only. A nil *SweepCache has no tiers. All methods are safe for
// concurrent use.
type SweepCache struct {
	mem  *memTier
	disk *Store
}

// memTier is the in-memory LRU tier. With maxBytes set, an insert evicts
// least-recently-used entries until the tier fits — never the entry
// being inserted, so the run that paid for a sweep can always reuse it
// at least once. A nil *memTier is an absent tier.
type memTier struct {
	maxBytes int64

	mu    sync.Mutex
	sets  map[string]*memEntry
	bytes int64
	tick  uint64 // logical clock driving LRU recency

	hits, misses, evictions uint64
}

// memEntry is one cached Set with its accounted payload size and
// last-use stamp.
type memEntry struct {
	set   *Set
	bytes int64
	used  uint64
}

// NewSweepCache returns a cache with a memory tier in front of disk (nil:
// memory only). maxBytes, when positive, caps the memory tier's snapshot
// payload (Set.WarmBytes + Set.MemBytes); 0 leaves it unbounded.
func NewSweepCache(maxBytes int64, disk *Store) *SweepCache {
	return &SweepCache{mem: &memTier{maxBytes: maxBytes, sets: make(map[string]*memEntry)}, disk: disk}
}

// DiskCache returns a cache whose only tier is disk: nothing is held in
// memory, not even a streamed sweep's units.
func DiskCache(disk *Store) *SweepCache { return &SweepCache{disk: disk} }

// WithoutDisk returns a cache sharing c's memory tier with no disk tier.
func (c *SweepCache) WithoutDisk() *SweepCache { return &SweepCache{mem: c.mem} }

// Store returns the disk tier, or nil. The partial-sweep journal lives
// beside its entries.
func (c *SweepCache) Store() *Store {
	if c == nil {
		return nil
	}
	return c.disk
}

// Get returns a caller-owned copy of the sweep cached under k, or nil.
// Memory is checked first (a hit refreshes its LRU recency), then disk,
// whose hit is promoted into memory when there is a memory tier. The
// error is a disk read failure other than a miss.
func (c *SweepCache) Get(k Key) (*Set, error) {
	if c == nil {
		return nil, nil
	}
	if set := c.mem.get(k); set != nil {
		return set.Clone(), nil
	}
	if c.disk == nil {
		return nil, nil
	}
	set, err := c.disk.Load(k)
	if set != nil {
		c.mem.put(k, set)
	}
	return set, err
}

// Put caches the complete sweep set under k: into memory, and saved to
// disk unless the disk already holds k. A failed save is logged, not
// returned; the sweep itself is still good.
func (c *SweepCache) Put(k Key, set *Set) {
	if c == nil {
		return
	}
	c.mem.put(k, set)
	if c.disk != nil && !c.disk.Contains(k) {
		if err := c.disk.Save(k, set); err != nil {
			c.disk.Log("checkpoint store: save failed: %v", err)
		}
	}
}

// Contains reports whether either tier holds a sweep for k, touching no
// counter or recency (and not validating a disk entry).
func (c *SweepCache) Contains(k Key) bool {
	return c != nil && (c.mem.contains(k) || c.disk != nil && c.disk.Contains(k))
}

// MemStats returns the memory tier's lifetime hit/miss/eviction counts
// and the snapshot payload it holds; ok is false without a memory tier.
func (c *SweepCache) MemStats() (hits, misses, evictions uint64, bytes int64, ok bool) {
	if c == nil || c.mem == nil {
		return 0, 0, 0, 0, false
	}
	c.mem.mu.Lock()
	defer c.mem.mu.Unlock()
	return c.mem.hits, c.mem.misses, c.mem.evictions, c.mem.bytes, true
}

// SweepWriter commits one streamed sweep to a cache's tiers as its units
// are captured: each unit is staged to disk as it arrives (so saving
// adds no memory footprint) and retained only for a memory tier. Exactly
// one of Commit and Abort must be called.
type SweepWriter struct {
	key   Key
	mem   *memTier
	disk  *SetWriter
	units []*Unit
}

// Writer starts streaming the sweep for k, over a population of pop
// units. A disk tier that cannot stage the entry is logged and skipped.
func (c *SweepCache) Writer(k Key, pop uint64) *SweepWriter {
	w := &SweepWriter{key: k}
	if c == nil {
		return w
	}
	w.mem = c.mem
	if c.disk != nil {
		var err error
		if w.disk, err = c.disk.Writer(k, pop); err != nil {
			c.disk.Log("checkpoint store: not saving: %v", err)
		}
	}
	return w
}

// Add appends the next unit in stream order. A disk write failure is
// logged and drops only the disk tier's entry.
func (w *SweepWriter) Add(u *Unit) {
	if w.disk != nil {
		if err := w.disk.Add(u); err != nil {
			w.disk.store.Log("checkpoint store: save failed mid-sweep: %v", err)
			w.disk = nil
		}
	}
	if w.mem != nil {
		w.units = append(w.units, u)
	}
}

// Commit installs the complete sweep in every tier: k is the sampling
// interval it was captured with, sum the finished sweep's summary.
func (w *SweepWriter) Commit(k uint64, sum *Summary) {
	if w.disk != nil {
		if err := w.disk.Commit(sum.SweepInsts, sum.SweepTime); err != nil {
			w.disk.store.Log("checkpoint store: save failed: %v", err)
		}
	}
	w.mem.put(w.key, &Set{Units: w.units, K: k, PopulationUnits: sum.PopulationUnits,
		SweepInsts: sum.SweepInsts, SweepTime: sum.SweepTime})
}

// Abort discards the staged sweep.
func (w *SweepWriter) Abort() {
	if w.disk != nil {
		w.disk.Abort()
	}
}

// get returns the set cached for k, refreshing its recency, or nil.
func (m *memTier) get(k Key) *Set {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.sets[k.Hash()]
	if e == nil {
		m.misses++
		return nil
	}
	m.hits++
	m.tick++
	e.used = m.tick
	return e.set
}

// put caches a copy of set under k, then — with maxBytes set — evicts
// least-recently-used entries until the tier fits (the just-inserted
// entry is exempt, so an oversized sweep still serves its own run).
func (m *memTier) put(k Key, set *Set) {
	if m == nil {
		return
	}
	set = set.Clone()
	size := int64(set.WarmBytes()) + int64(set.MemBytes())
	m.mu.Lock()
	defer m.mu.Unlock()
	hash := k.Hash()
	if old := m.sets[hash]; old != nil {
		m.bytes -= old.bytes
	}
	m.tick++
	m.sets[hash] = &memEntry{set: set, bytes: size, used: m.tick}
	m.bytes += size
	if m.maxBytes <= 0 {
		return
	}
	for m.bytes > m.maxBytes && len(m.sets) > 1 {
		oldest := ""
		for h, e := range m.sets {
			if h == hash {
				continue // never evict the entry being inserted
			}
			if oldest == "" || e.used < m.sets[oldest].used {
				oldest = h
			}
		}
		if oldest == "" {
			return
		}
		m.bytes -= m.sets[oldest].bytes
		delete(m.sets, oldest)
		m.evictions++
	}
}

func (m *memTier) contains(k Key) bool {
	if m == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.sets[k.Hash()]
	return ok
}
