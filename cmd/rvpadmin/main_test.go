package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rvpsim/internal/exp"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/server"
)

// runFsckCLI runs the CLI entry point and returns exit code + stdout.
func runFsckCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(append([]string{"fsck"}, args...), &out, &errb)
	if errb.Len() > 0 {
		t.Logf("stderr: %s", errb.String())
	}
	return code, out.String()
}

// seedState builds a realistic state dir: a job store and a journal.
func seedState(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s, err := server.OpenStore(server.StorePath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"j1", "j2"} {
		if err := s.Append(server.JobStatus{ID: id, State: server.StateQueued}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	j, err := exp.OpenJournal(exp.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("cell-1", pipeline.Stats{}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestFsckCleanState(t *testing.T) {
	dir := seedState(t)
	code, out := runFsckCLI(t, dir)
	if code != 0 {
		t.Fatalf("clean state: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "2 file(s) scanned, 0 damaged") {
		t.Fatalf("summary line wrong:\n%s", out)
	}
}

func TestFsckTornTailRepair(t *testing.T) {
	dir := seedState(t)
	logPath := server.StorePath(dir)
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"crc":12,"rec":{"tor`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Without -repair: damage found, not handled -> exit 1.
	code, out := runFsckCLI(t, dir)
	if code != 1 || !strings.Contains(out, "torn tail") {
		t.Fatalf("unrepaired torn tail: exit %d\n%s", code, out)
	}

	// With -repair: fixed -> exit 0, store opens with both jobs.
	code, out = runFsckCLI(t, "-repair", dir)
	if code != 0 || !strings.Contains(out, "tail repaired") {
		t.Fatalf("repair run: exit %d\n%s", code, out)
	}
	s, err := server.OpenStore(logPath)
	if err != nil {
		t.Fatalf("store after repair: %v", err)
	}
	if s.Len() != 2 || s.Truncated != 0 {
		t.Fatalf("store after repair: len=%d truncated=%d", s.Len(), s.Truncated)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The cut bytes survive next to the log.
	if _, err := os.Stat(logPath + ".tail"); err != nil {
		t.Fatalf("cut tail not preserved: %v", err)
	}
}

func TestFsckInteriorQuarantine(t *testing.T) {
	dir := seedState(t)
	logPath := server.StorePath(dir)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0x01 // interior damage: a valid record follows
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Without -quarantine: reported, not handled.
	code, out := runFsckCLI(t, dir)
	if code != 1 || !strings.Contains(out, "INTERIOR") {
		t.Fatalf("interior damage: exit %d\n%s", code, out)
	}

	qdir := filepath.Join(t.TempDir(), "q")
	code, out = runFsckCLI(t, "-quarantine", qdir, dir)
	if code != 0 || !strings.Contains(out, "quarantined") {
		t.Fatalf("quarantine run: exit %d\n%s", code, out)
	}
	if _, err := os.Stat(logPath); !os.IsNotExist(err) {
		t.Fatalf("damaged log still in place: %v", err)
	}
	if _, err := os.Stat(filepath.Join(qdir, "jobs.jsonl.corrupt")); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	// A fresh daemon open now starts clean.
	s, err := server.OpenStore(logPath)
	if err != nil {
		t.Fatalf("store after quarantine: %v", err)
	}
	if s.Len() != 0 {
		t.Fatalf("store after quarantine: len=%d", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFsckIgnoresLeftoverCheckpoints: a state dir as older versions
// left it, with a ckpt/ directory beside the logs, is clean, and fsck
// leaves that directory alone even with -quarantine.
func TestFsckIgnoresLeftoverCheckpoints(t *testing.T) {
	dir := seedState(t)
	ckpt := filepath.Join(dir, "ckpt", "a.ckpt")
	if err := os.MkdirAll(filepath.Dir(ckpt), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	qdir := filepath.Join(t.TempDir(), "q")
	code, out := runFsckCLI(t, "-quarantine", qdir, dir)
	if code != 0 || !strings.Contains(out, "2 file(s) scanned, 0 damaged") {
		t.Fatalf("state dir with a ckpt/ directory: exit %d\n%s", code, out)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("leftover checkpoint moved: %v", err)
	}
}

func TestFsckUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("no args: exit %d", code)
	}
	if code := run([]string{"nonesuch"}, &out, &errb); code != 2 {
		t.Fatalf("unknown subcommand: exit %d", code)
	}
	if code := run([]string{"fsck"}, &out, &errb); code != 2 {
		t.Fatalf("fsck without dirs: exit %d", code)
	}
}
