package mem

import (
	"reflect"
	"testing"
)

// The two-level flat page table plus last-page cache is an internal
// layout choice: snapshots, clones, and restores must behave exactly as
// they did with the old map-backed memory, including for pages in the
// sparse overflow region beyond the flat root span. These addresses are
// chosen to land in distinct leaves of every level: same leaf directory,
// different root entries, and past the flat span (>= 512 GiB) into the
// overflow map.
var flatPageProbes = []uint64{
	0x1000,                                      // root entry 0
	0x1000 + pageSize,                           // same leaf, next page
	1 << (pageBits + dirBits),                   // next root entry
	5 << (pageBits + dirBits),                   // a farther root entry
	1 << (pageBits + dirBits + rootBits),        // first overflow leaf
	1<<(pageBits+dirBits+rootBits) + 7*pageSize, // same overflow leaf
	1 << 45, // a farther overflow leaf
}

func writeProbes(m *Memory) {
	for i, addr := range flatPageProbes {
		m.WriteWord(addr, uint64(i)+1)
	}
}

func checkProbes(t *testing.T, m *Memory, label string) {
	t.Helper()
	for i, addr := range flatPageProbes {
		if got := m.ReadWord(addr); got != uint64(i)+1 {
			t.Errorf("%s: [%#x] = %d, want %d", label, addr, got, i+1)
		}
	}
}

// TestMemorySnapshotAcrossFlatAndOverflow: snapshot/restore round-trips
// pages from both the flat root and the overflow map, and the restored
// image re-snapshots identically (warm-start byte-determinism).
func TestMemorySnapshotAcrossFlatAndOverflow(t *testing.T) {
	m := NewMemory()
	writeProbes(m)
	if m.Footprint() != len(flatPageProbes) {
		t.Fatalf("footprint = %d, want %d distinct pages", m.Footprint(), len(flatPageProbes))
	}
	snap := m.Snapshot()
	r, err := RestoreMemory(snap)
	if err != nil {
		t.Fatal(err)
	}
	checkProbes(t, r, "restored")
	if r.Footprint() != m.Footprint() {
		t.Errorf("restored footprint = %d, want %d", r.Footprint(), m.Footprint())
	}
	if !reflect.DeepEqual(r.Snapshot(), snap) {
		t.Error("re-snapshot of restored memory differs from original snapshot")
	}
}

// TestMemoryCloneAcrossFlatAndOverflow: restored snapshots are
// independent deep copies in every region, and the last-page cache of either side never
// leaks writes into the other.
func TestMemoryCloneAcrossFlatAndOverflow(t *testing.T) {
	m := NewMemory()
	writeProbes(m)
	c := clone(t, m)
	checkProbes(t, c, "clone")
	// Overwrite through the clone (warming its last-page cache on each
	// page); the original must be unaffected, and vice versa.
	for _, addr := range flatPageProbes {
		c.WriteWord(addr, 0xdead)
	}
	checkProbes(t, m, "original after clone writes")
	m.WriteWord(flatPageProbes[0], 0xbeef)
	if got := c.ReadWord(flatPageProbes[0]); got != 0xdead {
		t.Errorf("clone sees original's write: %#x", got)
	}
	if !reflect.DeepEqual(m.Snapshot(), clone(t, m).Snapshot()) {
		t.Error("clone snapshot differs from source snapshot")
	}
}
