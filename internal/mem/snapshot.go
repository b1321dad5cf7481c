package mem

import (
	"fmt"

	"rvpsim/internal/simerr"
)

// This file implements checkpoint serialization for the memory system.
// Snapshot methods produce plain exported-field structs (gob/JSON
// friendly); Restore methods load them back into a freshly constructed
// object of the same configuration, validating geometry so a checkpoint
// taken under one config cannot be silently restored under another.
// Restore errors wrap simerr.ErrCorrupt.

// MemoryState is a deep copy of a sparse Memory image.
type MemoryState struct {
	Pages map[uint64][]uint64
}

// Snapshot returns a deep copy of the memory image.
func (m *Memory) Snapshot() MemoryState {
	s := MemoryState{Pages: make(map[uint64][]uint64, m.resident)}
	m.forEachPage(func(pn uint64, page []uint64) {
		s.Pages[pn] = append([]uint64(nil), page...)
	})
	return s
}

// RestoreMemory rebuilds a Memory from a snapshot.
func RestoreMemory(s MemoryState) (*Memory, error) {
	m := NewMemory()
	for k, p := range s.Pages {
		if len(p) != pageWords {
			return nil, fmt.Errorf("mem: snapshot page %#x has %d words, want %d: %w",
				k, len(p), pageWords, simerr.ErrCorrupt)
		}
		copy(m.ensure(k), p)
	}
	return m, nil
}

// CacheState is the restorable state of one Cache: contents and
// statistics, but not geometry (geometry comes from the config the
// restored run is built with).
type CacheState struct {
	Tags   []uint64
	Valid  []bool
	LRU    []uint8
	FillAt []int64

	Hits       uint64
	Misses     uint64
	FillStalls uint64
}

// Snapshot captures the cache contents and statistics.
func (c *Cache) Snapshot() CacheState {
	return CacheState{
		Tags:       append([]uint64(nil), c.tags...),
		Valid:      append([]bool(nil), c.valid...),
		LRU:        append([]uint8(nil), c.lru...),
		FillAt:     append([]int64(nil), c.fillAt...),
		Hits:       c.Hits,
		Misses:     c.Misses,
		FillStalls: c.FillStalls,
	}
}

// Restore loads a snapshot into the cache. The snapshot must have been
// taken from a cache of identical geometry.
func (c *Cache) Restore(s CacheState) error {
	if len(s.Tags) != len(c.tags) || len(s.Valid) != len(c.valid) ||
		len(s.LRU) != len(c.lru) || len(s.FillAt) != len(c.fillAt) {
		return fmt.Errorf("mem: cache %s: snapshot geometry mismatch (%d entries, want %d): %w",
			c.cfg.Name, len(s.Tags), len(c.tags), simerr.ErrCorrupt)
	}
	copy(c.tags, s.Tags)
	copy(c.valid, s.Valid)
	copy(c.lru, s.LRU)
	copy(c.fillAt, s.FillAt)
	c.Hits, c.Misses, c.FillStalls = s.Hits, s.Misses, s.FillStalls
	return nil
}

// TLBState is the restorable state of a TLB.
type TLBState struct {
	Entries []uint64
	Valid   []bool
	Stamp   []uint64
	Clock   uint64

	Hits   uint64
	Misses uint64
}

// Snapshot captures the TLB contents and statistics.
func (t *TLB) Snapshot() TLBState {
	return TLBState{
		Entries: append([]uint64(nil), t.entries...),
		Valid:   append([]bool(nil), t.valid...),
		Stamp:   append([]uint64(nil), t.stamp...),
		Clock:   t.clock,
		Hits:    t.Hits,
		Misses:  t.Misses,
	}
}

// Restore loads a snapshot into the TLB.
func (t *TLB) Restore(s TLBState) error {
	if len(s.Entries) != len(t.entries) || len(s.Valid) != len(t.valid) || len(s.Stamp) != len(t.stamp) {
		return fmt.Errorf("mem: tlb: snapshot geometry mismatch (%d entries, want %d): %w",
			len(s.Entries), len(t.entries), simerr.ErrCorrupt)
	}
	copy(t.entries, s.Entries)
	copy(t.valid, s.Valid)
	copy(t.stamp, s.Stamp)
	t.clock = s.Clock
	t.Hits, t.Misses = s.Hits, s.Misses
	return nil
}

// HierarchyState is the restorable state of the full memory hierarchy.
type HierarchyState struct {
	L1I, L1D, L2 CacheState
	ITLB, DTLB   TLBState
}

// Snapshot captures every level of the hierarchy.
func (h *Hierarchy) Snapshot() HierarchyState {
	return HierarchyState{
		L1I:  h.L1I.Snapshot(),
		L1D:  h.L1D.Snapshot(),
		L2:   h.L2.Snapshot(),
		ITLB: h.ITLB.Snapshot(),
		DTLB: h.DTLB.Snapshot(),
	}
}

// Restore loads a snapshot into every level of the hierarchy.
func (h *Hierarchy) Restore(s HierarchyState) error {
	if err := h.L1I.Restore(s.L1I); err != nil {
		return err
	}
	if err := h.L1D.Restore(s.L1D); err != nil {
		return err
	}
	if err := h.L2.Restore(s.L2); err != nil {
		return err
	}
	if err := h.ITLB.Restore(s.ITLB); err != nil {
		return err
	}
	return h.DTLB.Restore(s.DTLB)
}
