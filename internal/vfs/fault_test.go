package vfs

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// TestFaultErrAt: a planned error fails exactly the scheduled op and
// nothing else, and the error is recognizably injected.
func TestFaultErrAt(t *testing.T) {
	f := NewFault(NewMem())
	// Op 0 is the open; op 1 the first write.
	f.FailAt(Plan{At: 1, Kind: KindErr})
	h, err := f.OpenFile("/x", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := h.Write([]byte("a")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write 1: err=%v, want injected", err)
	}
	if _, err := h.Write([]byte("b")); err != nil {
		t.Fatalf("write 2 should pass: %v", err)
	}
	if got := f.Ops(); got != 3 {
		t.Fatalf("ops=%d, want 3 (open, write, write)", got)
	}
}

// TestFaultShortWrite: only a prefix lands, and the op still errors —
// the torn-write signature a WAL must repair.
func TestFaultShortWrite(t *testing.T) {
	m := NewMem()
	f := NewFault(m)
	f.FailAt(Plan{At: 1, Kind: KindShortWrite})
	h, _ := f.OpenFile("/x", os.O_RDWR|os.O_CREATE, 0o644)
	n, err := h.Write([]byte("abcdef"))
	if err == nil {
		t.Fatalf("short write reported success")
	}
	if n != 3 {
		t.Fatalf("short write landed %d bytes, want 3", n)
	}
	got, _ := ReadFile(m, "/x")
	if string(got) != "abc" {
		t.Fatalf("on-disk after short write: %q", got)
	}
}

// TestFaultFlip: the write "succeeds" but the stored bytes lie — the
// silent-corruption case CRC envelopes exist for.
func TestFaultFlip(t *testing.T) {
	m := NewMem()
	f := NewFault(m)
	f.FailAt(Plan{At: 1, Kind: KindFlip})
	h, _ := f.OpenFile("/x", os.O_RDWR|os.O_CREATE, 0o644)
	payload := []byte("abcdef")
	if _, err := h.Write(payload); err != nil {
		t.Fatalf("flip write must report success: %v", err)
	}
	got, _ := ReadFile(m, "/x")
	if string(got) == "abcdef" {
		t.Fatalf("flip wrote clean bytes")
	}
	if len(got) != len(payload) {
		t.Fatalf("flip changed length: %d", len(got))
	}
}

// TestFaultPersistentENOSPC: every mutation fails while the mode is on;
// reads keep working; clearing heals.
func TestFaultPersistentENOSPC(t *testing.T) {
	m := NewMem()
	h0, _ := m.OpenFile("/pre", os.O_RDWR|os.O_CREATE, 0o644)
	_, _ = h0.Write([]byte("pre"))
	_ = h0.Sync()
	_ = h0.Close()

	f := NewFault(m)
	f.SetPersistent(ENOSPC)
	if _, err := f.OpenFile("/x", os.O_WRONLY|os.O_CREATE, 0o644); !errors.Is(err, ENOSPC) {
		t.Fatalf("create under ENOSPC: %v", err)
	}
	// Reads still work: a full disk serves status queries.
	if got, err := ReadFile(f, "/pre"); err != nil || string(got) != "pre" {
		t.Fatalf("read under ENOSPC: %q, %v", got, err)
	}
	f.SetPersistent(nil)
	if _, err := f.OpenFile("/x", os.O_WRONLY|os.O_CREATE, 0o644); err != nil {
		t.Fatalf("after clearing ENOSPC: %v", err)
	}
}

// TestFaultCrashIsTerminal: from the crash point on, every operation
// fails with ErrCrashed — nothing further reaches the inner FS.
func TestFaultCrashIsTerminal(t *testing.T) {
	m := NewMem()
	f := NewFault(m)
	f.CrashAt(1)
	h, err := f.OpenFile("/x", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := h.Write([]byte("a")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write at crash point: %v", err)
	}
	if _, err := h.Write([]byte("b")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash: %v", err)
	}
	if err := h.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync after crash: %v", err)
	}
	if err := f.MkdirAll("/d", 0o755); !errors.Is(err, ErrCrashed) {
		t.Fatalf("mkdir after crash: %v", err)
	}
	if got, _ := ReadFile(m, "/x"); len(got) != 0 {
		t.Fatalf("bytes leaked past the crash: %q", got)
	}
}

// TestFaultCountsOnlyMutations: read-only opens, Stat and ReadDir are
// not counted, so crash-at-op-i schedules line up with the mutation
// sequence a store actually performs.
func TestFaultCountsOnlyMutations(t *testing.T) {
	m := NewMem()
	h, _ := m.OpenFile("/x", os.O_RDWR|os.O_CREATE, 0o644)
	_, _ = h.Write([]byte("hello"))
	_ = h.Sync()
	_ = h.Close()

	f := NewFault(m)
	if _, err := f.Open("/x"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat("/x"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadDir("/"); err != nil {
		t.Fatal(err)
	}
	if got := f.Ops(); got != 0 {
		t.Fatalf("read path counted %d ops (trace %v), want 0", got, f.Trace())
	}
}

// TestRemoveAllThroughFault: RemoveAll empties a nested tree with one
// Remove per entry, so a Fault fails exactly the scheduled removal; the
// error surfaces, and a second call finishes the job. A missing path is
// no error.
func TestRemoveAllThroughFault(t *testing.T) {
	m := NewMem()
	for _, p := range []string{"/s/a/x", "/s/a/y", "/s/b"} {
		if err := m.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := WriteFileAtomic(m, p, []byte(p), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f := NewFault(m)
	f.FailAt(Plan{At: 1, Kind: KindErr})
	if err := RemoveAll(f, "/s"); !errors.Is(err, ErrInjected) {
		t.Fatalf("RemoveAll with the second removal failing = %v, want injected", err)
	}
	if _, err := m.Stat("/s"); err != nil {
		t.Fatalf("the tree vanished although a removal failed: %v", err)
	}
	if err := RemoveAll(f, "/s"); err != nil {
		t.Fatalf("second RemoveAll: %v", err)
	}
	if got := f.Ops(); got != 6 {
		t.Fatalf("ops=%d, want 6: one failed and five successful removals", got)
	}
	for _, p := range []string{"/s", "/s/a", "/s/a/x", "/s/b"} {
		if _, err := m.Stat(p); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s after RemoveAll: stat err %v, want not exist", p, err)
		}
	}
	if err := RemoveAll(f, "/s"); err != nil {
		t.Fatalf("RemoveAll of a missing path: %v", err)
	}
}
