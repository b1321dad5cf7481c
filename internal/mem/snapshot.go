package mem

import (
	"fmt"

	"rvpsim/internal/simerr"
)

// This file copies a Memory image out and back: emu.Snapshot and
// emu.Restore use it for warm starts. RestoreMemory errors wrap
// simerr.ErrCorrupt.

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
