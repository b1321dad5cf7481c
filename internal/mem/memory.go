// Package mem provides the simulated memory hierarchy: a sparse 64-bit
// flat memory, set-associative write-back caches with LRU replacement, and
// a TLB model. Cache geometry and miss penalties default to Table 1 of the
// paper (32KB 4-way L1I and L1D, 512KB 2-way L2, 64-byte lines, 20-cycle
// L1 miss penalty, 80-cycle L2 miss penalty).
package mem

import (
	"fmt"

	"rvpsim/internal/simerr"
)

// pageBits selects the sparse-memory page size (64 KiB pages).
const pageBits = 16
const pageSize = 1 << pageBits
const pageWords = pageSize / 8

// Two-level split of the 48-bit page number: the flat root directory is
// indexed by the page number's high bits and each leaf directory covers
// dirSize contiguous pages. The flat root spans the low
// 1<<(pageBits+dirBits+rootBits) bytes (512 GiB) of the address space,
// which covers every address the workloads, the default code/stack
// layout, and any realistic program touch; the rare page beyond it (a
// wrapped or garbage effective address) falls back to a sparse overflow
// map keyed by root index, so semantics over the full 64-bit space are
// unchanged.
const dirBits = 10
const dirSize = 1 << dirBits // pages per leaf; one leaf spans 64 MiB
const rootBits = 13
const rootSize = 1 << rootBits // flat root entries

// pageDir is one leaf directory of the two-level page table.
type pageDir [dirSize][]uint64

// Memory is a sparse, paged, 64-bit-word-addressable flat memory. All
// accesses used by the ISA are aligned 64-bit words. Lookups go through
// a one-entry last-page cache and then a two-level flat page table, so
// the read/write hot path performs no map or hash operations.
type Memory struct {
	root     []*pageDir          // flat root directory (low 512 GiB)
	high     map[uint64]*pageDir // overflow leaves beyond the flat span
	resident int                 // allocated pages

	// Last-page cache: the page most recently touched. lastPage == nil
	// means the cache is empty (page number 0 is valid, so the page
	// pointer, not the number, is the validity flag).
	lastPN   uint64
	lastPage []uint64
}

// NewMemory returns an empty memory; unwritten locations read as zero.
func NewMemory() *Memory {
	return &Memory{root: make([]*pageDir, rootSize)}
}

// lookup returns the page for page number pn, nil when not resident.
func (m *Memory) lookup(pn uint64) []uint64 {
	di := pn >> dirBits
	var d *pageDir
	if di < rootSize {
		d = m.root[di]
	} else {
		d = m.high[di]
	}
	if d == nil {
		return nil
	}
	return d[pn&(dirSize-1)]
}

// ensure returns the page for page number pn, allocating the leaf
// directory and the page as needed.
func (m *Memory) ensure(pn uint64) []uint64 {
	di := pn >> dirBits
	var d *pageDir
	if di < rootSize {
		if d = m.root[di]; d == nil {
			d = new(pageDir)
			m.root[di] = d
		}
	} else {
		if d = m.high[di]; d == nil {
			if m.high == nil {
				m.high = make(map[uint64]*pageDir)
			}
			d = new(pageDir)
			m.high[di] = d
		}
	}
	page := d[pn&(dirSize-1)]
	if page == nil {
		page = make([]uint64, pageWords)
		d[pn&(dirSize-1)] = page
		m.resident++
	}
	return page
}

// forEachPage visits every resident page (order unspecified).
func (m *Memory) forEachPage(fn func(pn uint64, page []uint64)) {
	for di, d := range m.root {
		if d == nil {
			continue
		}
		for i, page := range d {
			if page != nil {
				fn(uint64(di)<<dirBits|uint64(i), page)
			}
		}
	}
	for di, d := range m.high {
		for i, page := range d {
			if page != nil {
				fn(di<<dirBits|uint64(i), page)
			}
		}
	}
}

// ReadWord reads the aligned 64-bit word at addr (low 3 bits ignored).
func (m *Memory) ReadWord(addr uint64) uint64 {
	pn := addr >> pageBits
	if pn == m.lastPN && m.lastPage != nil {
		return m.lastPage[addr>>3&(pageWords-1)]
	}
	page := m.lookup(pn)
	if page == nil {
		return 0
	}
	m.lastPN, m.lastPage = pn, page
	return page[addr>>3&(pageWords-1)]
}

// WriteWord writes the aligned 64-bit word at addr.
func (m *Memory) WriteWord(addr uint64, v uint64) {
	pn := addr >> pageBits
	if pn == m.lastPN && m.lastPage != nil {
		m.lastPage[addr>>3&(pageWords-1)] = v
		return
	}
	page := m.ensure(pn)
	m.lastPN, m.lastPage = pn, page
	page[addr>>3&(pageWords-1)] = v
}

// Footprint returns the number of resident simulated pages.
func (m *Memory) Footprint() int { return m.resident }

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name        string
	SizeBytes   int
	Assoc       int
	LineBytes   int
	MissPenalty int // cycles added on a miss at this level
	HitLatency  int // cycles for a hit (access time)
}

// Validate checks the geometry. Errors wrap simerr.ErrConfig.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("mem: cache %s: nonpositive geometry: %w", c.Name, simerr.ErrConfig)
	}
	if c.SizeBytes%(c.Assoc*c.LineBytes) != 0 {
		return fmt.Errorf("mem: cache %s: size %d not divisible by assoc*line: %w", c.Name, c.SizeBytes, simerr.ErrConfig)
	}
	sets := c.SizeBytes / (c.Assoc * c.LineBytes)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: cache %s: set count %d not a power of two: %w", c.Name, sets, simerr.ErrConfig)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: cache %s: line size %d not a power of two: %w", c.Name, c.LineBytes, simerr.ErrConfig)
	}
	if c.LineBytes < 8 {
		// Every access is one aligned 64-bit word. The bound also keeps
		// a tag below 2^61, which Cache.key relies on.
		return fmt.Errorf("mem: cache %s: line size %d below one 8-byte word: %w", c.Name, c.LineBytes, simerr.ErrConfig)
	}
	return nil
}

// Cache is a set-associative cache with true-LRU replacement. It models
// only tags and timing; data flows through the flat Memory.
type Cache struct {
	cfg      CacheConfig
	sets     int
	lineBits uint
	setBits  uint // log2(sets), precomputed off the probe path
	setMask  uint64
	tags     []uint64 // sets*assoc entries: tag+1, 0 for an empty way
	lru      []uint8  // per-entry LRU stamp; lower = older
	fillAt   []int64  // cycle the line's fill completes (MSHR-style)

	Hits       uint64
	Misses     uint64
	FillStalls uint64 // hits that waited on an in-flight fill
}

// NewCache builds a cache from cfg. Invalid geometry is reported as an
// error wrapping simerr.ErrConfig rather than a panic, so misconfigured
// experiment points fail cleanly instead of sinking a whole sweep.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / (cfg.Assoc * cfg.LineBytes)
	lb := uint(0)
	for 1<<lb < cfg.LineBytes {
		lb++
	}
	return &Cache{
		cfg:      cfg,
		sets:     sets,
		lineBits: lb,
		setBits:  uint(log2(sets)),
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, sets*cfg.Assoc),
		lru:      make([]uint8, sets*cfg.Assoc),
		fillAt:   make([]int64, sets*cfg.Assoc),
	}, nil
}

// MustNewCache is NewCache, panicking on error (tests and known-valid
// defaults).
func MustNewCache(cfg CacheConfig) *Cache {
	c, err := NewCache(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// key returns the first way of addr's set and the tag entry that marks
// addr's line present: the tag plus one, so that 0 marks an empty way.
// Validate keeps lines at least 8 bytes long, so a tag is below 2^61 and
// tag+1 never wraps to 0.
func (c *Cache) key(addr uint64) (base int, key uint64) {
	line := addr >> c.lineBits
	return int(line&c.setMask) * c.cfg.Assoc, line>>c.setBits + 1
}

// Probe looks addr up at cycle now. It returns whether the line is
// present and, for a present line whose fill is still in flight, the
// remaining wait in cycles (MSHR-style secondary-miss behaviour). A miss
// does not install the line; callers follow up with Install.
func (c *Cache) Probe(addr uint64, now int64) (bool, int64) {
	base, key := c.key(addr)
	for w := 0; w < c.cfg.Assoc; w++ {
		if c.tags[base+w] == key {
			c.touch(base, w)
			c.Hits++
			if wait := c.fillAt[base+w] - now; wait > 0 {
				c.FillStalls++
				return true, wait
			}
			return true, 0
		}
	}
	c.Misses++
	return false, 0
}

// Install places addr's line in the cache with the given fill-completion
// cycle, evicting the LRU way if needed.
func (c *Cache) Install(addr uint64, fillDone int64) {
	base, key := c.key(addr)
	victim := 0
	for w := 0; w < c.cfg.Assoc; w++ {
		if c.tags[base+w] == 0 {
			victim = w
			break
		}
		if c.lru[base+w] < c.lru[base+victim] {
			victim = w
		}
	}
	c.tags[base+victim] = key
	c.fillAt[base+victim] = fillDone
	c.touch(base, victim)
}

// touch makes way w the most recently used in its set.
func (c *Cache) touch(base, w int) {
	old := c.lru[base+w]
	if int(old) == c.cfg.Assoc-1 {
		// Already MRU: the demotion loop below would find nothing above
		// old, so skipping it is exact. Hits are overwhelmingly to the
		// MRU way, so this removes the per-hit way scan.
		return
	}
	for i := 0; i < c.cfg.Assoc; i++ {
		if c.lru[base+i] > old {
			c.lru[base+i]--
		}
	}
	c.lru[base+w] = uint8(c.cfg.Assoc - 1)
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.lru)
	clear(c.fillAt)
	c.Hits, c.Misses, c.FillStalls = 0, 0, 0
}

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

// TLBConfig describes a TLB.
type TLBConfig struct {
	Entries     int
	PageBytes   int
	MissPenalty int
}

// TLB is a fully-associative, LRU translation buffer. The simulator uses a
// flat address space, so the TLB contributes only timing.
type TLB struct {
	cfg      TLBConfig
	pageBits uint
	entries  []uint64
	valid    []bool
	stamp    []uint64
	clock    uint64
	lastHit  int // way of the most recent hit (fast path; -1 = none)

	Hits   uint64
	Misses uint64
}

// Validate checks the TLB configuration. Errors wrap simerr.ErrConfig.
func (c TLBConfig) Validate() error {
	if c.Entries <= 0 {
		return fmt.Errorf("mem: tlb: nonpositive entry count %d: %w", c.Entries, simerr.ErrConfig)
	}
	if c.PageBytes <= 0 || c.PageBytes&(c.PageBytes-1) != 0 {
		return fmt.Errorf("mem: tlb: page size %d not a positive power of two: %w", c.PageBytes, simerr.ErrConfig)
	}
	return nil
}

// NewTLB builds a TLB; invalid configurations are errors, not panics.
func NewTLB(cfg TLBConfig) (*TLB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pb := uint(0)
	for 1<<pb < cfg.PageBytes {
		pb++
	}
	return &TLB{
		cfg:      cfg,
		pageBits: pb,
		entries:  make([]uint64, cfg.Entries),
		valid:    make([]bool, cfg.Entries),
		stamp:    make([]uint64, cfg.Entries),
		lastHit:  -1,
	}, nil
}

// MustNewTLB is NewTLB, panicking on error.
func MustNewTLB(cfg TLBConfig) *TLB {
	t, err := NewTLB(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Access touches the page of addr and reports a hit.
func (t *TLB) Access(addr uint64) bool {
	page := addr >> t.pageBits
	t.clock++
	// Fast path: consecutive accesses overwhelmingly touch the page that
	// hit last time. Identical replacement state to the scan below — the
	// same entry gets the same LRU stamp — just without the scan.
	if h := t.lastHit; h >= 0 && t.valid[h] && t.entries[h] == page {
		t.stamp[h] = t.clock
		t.Hits++
		return true
	}
	for i := range t.entries {
		if t.valid[i] && t.entries[i] == page {
			t.stamp[i] = t.clock
			t.Hits++
			t.lastHit = i
			return true
		}
	}
	t.Misses++
	victim := 0
	for i := range t.entries {
		if !t.valid[i] {
			victim = i
			break
		}
		if t.stamp[i] < t.stamp[victim] {
			victim = i
		}
	}
	t.entries[victim] = page
	t.valid[victim] = true
	t.stamp[victim] = t.clock
	return false
}

// Config returns the TLB configuration.
func (t *TLB) Config() TLBConfig { return t.cfg }

// Reset clears contents and statistics, as if freshly built.
func (t *TLB) Reset() {
	for i := range t.entries {
		t.entries[i] = 0
		t.valid[i] = false
		t.stamp[i] = 0
	}
	t.clock = 0
	t.lastHit = -1
	t.Hits, t.Misses = 0, 0
}

// Hierarchy bundles the Table 1 memory system: split L1, unified L2, and
// TLBs. AccessDataAt/AccessInstAt return the access latency in cycles.
type Hierarchy struct {
	L1I  *Cache
	L1D  *Cache
	L2   *Cache
	ITLB *TLB
	DTLB *TLB
}

// HierarchyConfig configures NewHierarchy.
type HierarchyConfig struct {
	L1I, L1D, L2 CacheConfig
	ITLB, DTLB   TLBConfig
}

// DefaultHierarchyConfig returns the paper's Table 1 memory system.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:  CacheConfig{Name: "L1I", SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64, MissPenalty: 20, HitLatency: 1},
		L1D:  CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64, MissPenalty: 20, HitLatency: 1},
		L2:   CacheConfig{Name: "L2", SizeBytes: 512 << 10, Assoc: 2, LineBytes: 64, MissPenalty: 80, HitLatency: 0},
		ITLB: TLBConfig{Entries: 64, PageBytes: 8 << 10, MissPenalty: 30},
		DTLB: TLBConfig{Entries: 64, PageBytes: 8 << 10, MissPenalty: 30},
	}
}

// Validate checks every level of the hierarchy configuration.
func (c HierarchyConfig) Validate() error {
	for _, cc := range []CacheConfig{c.L1I, c.L1D, c.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if err := c.ITLB.Validate(); err != nil {
		return err
	}
	return c.DTLB.Validate()
}

// NewHierarchy builds the hierarchy; the first invalid level is
// reported as an error wrapping simerr.ErrConfig.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	l1i, err := NewCache(cfg.L1I)
	if err != nil {
		return nil, err
	}
	l1d, err := NewCache(cfg.L1D)
	if err != nil {
		return nil, err
	}
	l2, err := NewCache(cfg.L2)
	if err != nil {
		return nil, err
	}
	itlb, err := NewTLB(cfg.ITLB)
	if err != nil {
		return nil, err
	}
	dtlb, err := NewTLB(cfg.DTLB)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{L1I: l1i, L1D: l1d, L2: l2, ITLB: itlb, DTLB: dtlb}, nil
}

// MustNewHierarchy is NewHierarchy, panicking on error (tests and the
// known-valid default configuration).
func MustNewHierarchy(cfg HierarchyConfig) *Hierarchy {
	h, err := NewHierarchy(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Reset clears every level's contents and statistics. Geometry is fixed
// at construction, so a reset hierarchy is interchangeable with a newly
// built one; simulators reuse theirs across runs instead of reallocating
// ~100KB of tag arrays per run.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.ITLB.Reset()
	h.DTLB.Reset()
}

// AccessDataAt returns the latency, in cycles, of a data access issued at
// cycle now. Misses install lines with their fill-completion times, so
// subsequent accesses to an in-flight line wait for the fill rather than
// hitting for free (MSHR-style secondary-miss behaviour).
func (h *Hierarchy) AccessDataAt(addr uint64, now int64) int {
	lat := int64(h.L1D.Config().HitLatency)
	if !h.DTLB.Access(addr) {
		lat += int64(h.DTLB.Config().MissPenalty)
	}
	if hit, wait := h.L1D.Probe(addr, now); hit {
		return int(lat + wait)
	}
	fill := int64(h.L1D.Config().MissPenalty)
	l2Hit, l2Wait := h.L2.Probe(addr, now)
	if l2Hit {
		fill += l2Wait
	} else {
		fill += int64(h.L2.Config().MissPenalty)
		h.L2.Install(addr, now+fill)
	}
	h.L1D.Install(addr, now+fill)
	return int(lat + fill)
}

// AccessInstAt returns the latency, in cycles, of an instruction fetch
// from addr at cycle now beyond the pipelined fetch (0 means "hit, no
// stall"), modelling fill times as AccessDataAt does.
func (h *Hierarchy) AccessInstAt(addr uint64, now int64) int {
	lat := int64(0)
	if !h.ITLB.Access(addr) {
		lat += int64(h.ITLB.Config().MissPenalty)
	}
	if hit, wait := h.L1I.Probe(addr, now); hit {
		return int(lat + wait)
	}
	fill := int64(h.L1I.Config().MissPenalty)
	l2Hit, l2Wait := h.L2.Probe(addr, now)
	if l2Hit {
		fill += l2Wait
	} else {
		fill += int64(h.L2.Config().MissPenalty)
		h.L2.Install(addr, now+fill)
	}
	h.L1I.Install(addr, now+fill)
	return int(lat + fill)
}
