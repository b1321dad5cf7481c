package mem

import (
	"errors"
	"testing"

	"rvpsim/internal/simerr"
)

// TestConfigErrors checks every memory constructor rejects invalid
// geometry with an error wrapping simerr.ErrConfig instead of panicking.
func TestConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		err  func() error
	}{
		{"cache zero size", func() error {
			_, err := NewCache(CacheConfig{Name: "x", SizeBytes: 0, Assoc: 1, LineBytes: 64})
			return err
		}},
		{"cache non-pow2 line", func() error {
			_, err := NewCache(CacheConfig{Name: "x", SizeBytes: 1152, Assoc: 1, LineBytes: 48})
			return err
		}},
		{"cache line below a word", func() error {
			_, err := NewCache(CacheConfig{Name: "x", SizeBytes: 64, Assoc: 1, LineBytes: 4})
			return err
		}},
		{"cache non-pow2 sets", func() error {
			_, err := NewCache(CacheConfig{Name: "x", SizeBytes: 3 * 64, Assoc: 1, LineBytes: 64})
			return err
		}},
		{"cache indivisible size", func() error {
			_, err := NewCache(CacheConfig{Name: "x", SizeBytes: 1000, Assoc: 3, LineBytes: 64})
			return err
		}},
		{"tlb zero entries", func() error {
			_, err := NewTLB(TLBConfig{Entries: 0, PageBytes: 8 << 10})
			return err
		}},
		{"tlb non-pow2 page", func() error {
			_, err := NewTLB(TLBConfig{Entries: 64, PageBytes: 3000})
			return err
		}},
		{"hierarchy bad level", func() error {
			cfg := DefaultHierarchyConfig()
			cfg.L1D.Assoc = 0
			_, err := NewHierarchy(cfg)
			return err
		}},
		{"hierarchy bad tlb", func() error {
			cfg := DefaultHierarchyConfig()
			cfg.DTLB.Entries = -1
			_, err := NewHierarchy(cfg)
			return err
		}},
	}
	for _, c := range cases {
		err := c.err()
		if err == nil {
			t.Errorf("%s: invalid config accepted", c.name)
			continue
		}
		if !errors.Is(err, simerr.ErrConfig) {
			t.Errorf("%s: error %v does not wrap ErrConfig", c.name, err)
		}
	}
}

// TestMustNewCachePanics checks the Must wrapper still panics for tests
// that want fail-fast construction.
func TestMustNewCachePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewCache accepted invalid geometry")
		}
	}()
	MustNewCache(CacheConfig{Name: "x", SizeBytes: -1, Assoc: 1, LineBytes: 64})
}
