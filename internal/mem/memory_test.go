package mem

import (
	"errors"
	"testing"
	"testing/quick"

	"rvpsim/internal/simerr"
)

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	if m.ReadWord(0x1000) != 0 {
		t.Error("unwritten memory not zero")
	}
	m.WriteWord(0x1000, 0xdeadbeef)
	if got := m.ReadWord(0x1000); got != 0xdeadbeef {
		t.Errorf("read = %#x", got)
	}
	// Unaligned address maps to the containing word.
	if got := m.ReadWord(0x1003); got != 0xdeadbeef {
		t.Errorf("unaligned read = %#x", got)
	}
	// Distant addresses are independent pages.
	m.WriteWord(1<<40, 7)
	if m.ReadWord(1<<40) != 7 || m.ReadWord(0x1000) != 0xdeadbeef {
		t.Error("pages interfere")
	}
	if m.Footprint() != 2 {
		t.Errorf("footprint = %d, want 2", m.Footprint())
	}
}

func TestMemoryProperty(t *testing.T) {
	m := NewMemory()
	f := func(addr, v uint64) bool {
		addr &^= 7
		m.WriteWord(addr, v)
		return m.ReadWord(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clone copies m the one way memory is copied: a snapshot restored.
func clone(t *testing.T, m *Memory) *Memory {
	t.Helper()
	c, err := RestoreMemory(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMemoryClone(t *testing.T) {
	m := NewMemory()
	m.WriteWord(64, 1)
	c := clone(t, m)
	c.WriteWord(64, 2)
	if m.ReadWord(64) != 1 || c.ReadWord(64) != 2 {
		t.Error("clone shares pages")
	}
}

func TestRestoreMemoryValidatesGeometry(t *testing.T) {
	_, err := RestoreMemory(MemoryState{Pages: map[uint64][]uint64{0: make([]uint64, 3)}})
	if !errors.Is(err, simerr.ErrCorrupt) {
		t.Fatalf("RestoreMemory(bad page) = %v, want ErrCorrupt", err)
	}
}

// access looks addr up with Probe and, on a miss, installs it with an
// instant fill, ignoring fill timing; it reports whether addr hit.
func access(c *Cache, addr uint64) bool {
	hit, _ := c.Probe(addr, 0)
	if !hit {
		c.Install(addr, 0)
	}
	return hit
}

func TestCacheHitMiss(t *testing.T) {
	c := MustNewCache(CacheConfig{Name: "t", SizeBytes: 1024, Assoc: 2, LineBytes: 64, MissPenalty: 10, HitLatency: 1})
	if access(c, 0) {
		t.Error("cold access hit")
	}
	if !access(c, 0) {
		t.Error("second access missed")
	}
	if !access(c, 63) {
		t.Error("same-line access missed")
	}
	if access(c, 64) {
		t.Error("next-line access hit")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	// 2-way, 8 sets of 64B lines: addresses 0, 512, 1024 map to set 0.
	c := MustNewCache(CacheConfig{Name: "t", SizeBytes: 1024, Assoc: 2, LineBytes: 64})
	access(c, 0)    // miss, installs A
	access(c, 512)  // miss, installs B
	access(c, 0)    // hit A; B becomes LRU
	access(c, 1024) // miss, evicts B
	if !access(c, 0) {
		t.Error("A evicted though it was MRU")
	}
	if access(c, 512) {
		t.Error("B hit though it should have been evicted")
	}
}

func TestCacheConfigValidate(t *testing.T) {
	bad := []CacheConfig{
		{Name: "a", SizeBytes: 0, Assoc: 1, LineBytes: 64},
		{Name: "b", SizeBytes: 1000, Assoc: 2, LineBytes: 64},       // not divisible
		{Name: "c", SizeBytes: 64 * 2 * 3, Assoc: 2, LineBytes: 64}, // 3 sets
		{Name: "d", SizeBytes: 960, Assoc: 1, LineBytes: 60},        // line not pow2
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %s validated", cfg.Name)
		}
	}
	good := CacheConfig{Name: "g", SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestCacheReset(t *testing.T) {
	c := MustNewCache(CacheConfig{Name: "t", SizeBytes: 1024, Assoc: 2, LineBytes: 64})
	access(c, 0)
	access(c, 0)
	c.Reset()
	if c.Hits != 0 || c.Misses != 0 {
		t.Error("stats not reset")
	}
	if access(c, 0) {
		t.Error("contents not reset")
	}
}

func TestTLB(t *testing.T) {
	tl := MustNewTLB(TLBConfig{Entries: 2, PageBytes: 8192, MissPenalty: 30})
	if tl.Access(0) {
		t.Error("cold TLB hit")
	}
	if !tl.Access(4096) {
		t.Error("same-page access missed")
	}
	tl.Access(8192)  // second page
	tl.Access(0)     // keep page 0 recent
	tl.Access(16384) // third page: evicts page 1 (LRU)
	if !tl.Access(0) {
		t.Error("page 0 evicted though recently used")
	}
	if tl.Access(8192) {
		t.Error("page 1 still present")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := MustNewHierarchy(DefaultHierarchyConfig())
	// Cold: TLB miss + L1 miss + L2 miss.
	lat := h.AccessDataAt(0x10000, 0)
	want := 1 + 30 + 20 + 80
	if lat != want {
		t.Errorf("cold latency = %d, want %d", lat, want)
	}
	// Hot (after the fill completed): hit latency only.
	if lat := h.AccessDataAt(0x10000, 1000); lat != 1 {
		t.Errorf("hot latency = %d, want 1", lat)
	}
	// Instruction side: cold then hot.
	if lat := h.AccessInstAt(0x20000, 0); lat != 30+20+80 {
		t.Errorf("cold ifetch latency = %d", lat)
	}
	if lat := h.AccessInstAt(0x20000, 1000); lat != 0 {
		t.Errorf("hot ifetch latency = %d, want 0", lat)
	}
}

func TestHierarchyL2SharedByIAndD(t *testing.T) {
	h := MustNewHierarchy(DefaultHierarchyConfig())
	h.AccessDataAt(0x40000, 0) // warms L2 line
	lat := h.AccessInstAt(0x40000, 1000)
	// ITLB and L1I miss but L2 hits: 30 + 20.
	if lat != 50 {
		t.Errorf("latency = %d, want 50 (L2 should hit)", lat)
	}
}

func TestFillTimeSecondaryMiss(t *testing.T) {
	h := MustNewHierarchy(DefaultHierarchyConfig())
	// Primary miss at cycle 1000: TLB(30) + L1 fill(20) + L2 fill(80).
	lat := h.AccessDataAt(0x50000, 1000)
	if lat != 1+30+20+80 {
		t.Fatalf("primary miss latency = %d", lat)
	}
	// Secondary access to the same line 10 cycles later waits for the
	// remaining fill, not the full penalty and not zero.
	lat2 := h.AccessDataAt(0x50008, 1010)
	want := 1 + (100 - 10)
	if lat2 != want {
		t.Errorf("secondary access latency = %d, want %d", lat2, want)
	}
	// After the fill completes, plain hits.
	if lat3 := h.AccessDataAt(0x50010, 2000); lat3 != 1 {
		t.Errorf("post-fill latency = %d, want 1", lat3)
	}
}
