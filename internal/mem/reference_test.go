package mem

import "testing"

type refRNG struct{ s uint64 }

func (r *refRNG) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// refCache is a straightforward per-set LRU list used to cross-check the
// stamp-based implementation.
type refCache struct {
	sets      int
	assoc     int
	lineBytes uint64
	lines     [][]uint64 // per set, most recent first
}

func newRefCache(size, assoc, line int) *refCache {
	return &refCache{
		sets:      size / (assoc * line),
		assoc:     assoc,
		lineBytes: uint64(line),
		lines:     make([][]uint64, size/(assoc*line)),
	}
}

func (c *refCache) access(addr uint64) bool {
	line := addr / c.lineBytes
	set := int(line % uint64(c.sets))
	ls := c.lines[set]
	for i, l := range ls {
		if l == line {
			// Move to front.
			copy(ls[1:i+1], ls[:i])
			ls[0] = line
			return true
		}
	}
	ls = append([]uint64{line}, ls...)
	if len(ls) > c.assoc {
		ls = ls[:c.assoc]
	}
	c.lines[set] = ls
	return false
}

// TestCacheMatchesReferenceLRU drives random and strided access patterns
// through the cache and a reference model and requires identical
// hit/miss sequences.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	cfgs := []CacheConfig{
		{Name: "small", SizeBytes: 1 << 10, Assoc: 2, LineBytes: 64},
		{Name: "l1", SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64},
		{Name: "direct", SizeBytes: 4 << 10, Assoc: 1, LineBytes: 64},
		{Name: "word", SizeBytes: 32, Assoc: 4, LineBytes: 8}, // one set: the widest tags
	}
	for _, cfg := range cfgs {
		c := MustNewCache(cfg)
		ref := newRefCache(cfg.SizeBytes, cfg.Assoc, cfg.LineBytes)
		rng := &refRNG{s: 99}
		for step := 0; step < 50000; step++ {
			var addr uint64
			switch step % 4 {
			case 0:
				addr = rng.next() % (1 << 16) // random within 64K
			case 1:
				addr = uint64(step) * 64 % (1 << 15) // stride
			case 2:
				addr = rng.next() % (1 << 12) // hot region, tag 0 included
			default:
				addr = ^uint64(0) - rng.next()%(1<<12) // top of the address space
			}
			got := access(c, addr)
			want := ref.access(addr)
			if got != want {
				t.Fatalf("%s: step %d addr %#x: hit=%v, reference %v", cfg.Name, step, addr, got, want)
			}
		}
	}
}

// TestFillStallCounting: secondary accesses during a fill are counted.
func TestFillStallCounting(t *testing.T) {
	h := MustNewHierarchy(DefaultHierarchyConfig())
	h.AccessDataAt(0x80000, 100)  // primary miss
	h.AccessDataAt(0x80008, 110)  // secondary: same line, fill in flight
	h.AccessDataAt(0x80010, 5000) // fill long done
	if h.L1D.FillStalls != 1 {
		t.Errorf("FillStalls = %d, want 1", h.L1D.FillStalls)
	}
}
