package syncvet

import (
	"os"
	"path/filepath"
	"testing"
)

// TestDurabilityLayerDiscardsNoSyncErrors runs the check over every
// package that owns persistent state. One discarded Sync/SyncDir/Close
// error anywhere in them fails ci.
func TestDurabilityLayerDiscardsNoSyncErrors(t *testing.T) {
	root := "../../.." // internal/tools/syncvet -> repo root
	dirs := []string{
		"internal/wal",
		"internal/wal/waltest",
		"internal/vfs",
		"internal/server",
		"internal/exp",
		"internal/fleet",
		"internal/client",
		"internal/netfault",
		"cmd/rvpadmin",
	}
	for i, d := range dirs {
		dirs[i] = filepath.Join(root, d)
	}
	diags, err := Check(dirs...)
	if err != nil {
		t.Fatalf("syncvet: %v", err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}

// TestCheckFlagsTheBadForms proves the check actually catches what it
// claims to (a vet that never fires is indistinguishable from no vet).
func TestCheckFlagsTheBadForms(t *testing.T) {
	dir := t.TempDir()
	src := `package p

type f struct{}

func (f) Sync() error    { return nil }
func (f) Close() error   { return nil }
func (f) SyncDir() error { return nil }
func (f) Other() error   { return nil }

func bad() {
	var x f
	x.Sync()
	x.Close()
	x.SyncDir()
}

func good() error {
	var x f
	defer x.Close()
	_ = x.Sync()
	x.Other()
	if err := x.Sync(); err != nil {
		return err
	}
	return x.Close()
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := Check(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3:\n%v", len(diags), diags)
	}
}
