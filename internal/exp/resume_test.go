package exp_test

import (
	"context"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"rvpsim/internal/exp"
	"rvpsim/internal/obs"
)

// resumeOpts is the shared small-scale configuration for the crash-safe
// experiment tests.
func resumeOpts() exp.Options {
	return exp.Options{Insts: 30_000, ProfileInsts: 15_000, Threshold: 0.80, Parallel: true}
}

var refOnce sync.Once
var refTable string
var refErr error

// refFigure5 memoises the uninterrupted reference rendering of Figure 5
// at the test scale; every resume test compares against it.
func refFigure5(t *testing.T) string {
	t.Helper()
	refOnce.Do(func() {
		tab, err := exp.NewRunner(resumeOpts()).Figure5()
		if err != nil {
			refErr = err
			return
		}
		refTable = tab.String()
	})
	if refErr != nil {
		t.Fatalf("reference Figure5: %v", refErr)
	}
	return refTable
}

// stripNotes drops footnote lines so value grids can be compared when
// one side carries recovery warnings.
func stripNotes(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "  note:") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// interrupt runs Figure 5 against dir, killing the sweep via kill after
// eight completed cells, and returns the (expected) run error.
func interrupt(t *testing.T, dir string, ctx context.Context, kill func()) error {
	t.Helper()
	opts := resumeOpts()
	opts.StateDir = dir
	opts.Context = ctx
	var done atomic.Int32
	opts.OnRunDone = func(string) {
		if done.Add(1) == 8 {
			kill()
		}
	}
	r := exp.NewRunner(opts)
	if err := r.EnableResume(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, err := r.Figure5()
	return err
}

// resumeAndCheck re-runs Figure 5 from dir and asserts the final table
// matches the uninterrupted reference (modulo footnotes when wantNotes
// is set, byte-identical otherwise).
func resumeAndCheck(t *testing.T, dir string, wantNote string) *obs.Registry {
	t.Helper()
	opts := resumeOpts()
	opts.StateDir = dir
	reg := obs.NewRegistry()
	opts.Registry = reg
	r := exp.NewRunner(opts)
	if err := r.EnableResume(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Journaled() == 0 {
		t.Fatal("no journaled cells survived the interruption")
	}
	tab, err := r.Figure5()
	if err != nil {
		t.Fatalf("resumed Figure5: %v", err)
	}
	got := tab.String()
	want := refFigure5(t)
	if wantNote == "" {
		if got != want {
			t.Errorf("resumed table is not byte-identical to uninterrupted run:\n--- got\n%s--- want\n%s", got, want)
		}
	} else {
		if stripNotes(got) != stripNotes(want) {
			t.Errorf("resumed table values differ from uninterrupted run:\n--- got\n%s--- want\n%s", got, want)
		}
		if !strings.Contains(got, wantNote) {
			t.Errorf("resumed table is missing the recovery footnote %q:\n%s", wantNote, got)
		}
	}
	if reg.Counter("exp_journal_replayed", "").Value() == 0 {
		t.Error("resume did not replay any journaled cells")
	}
	return reg
}

// TestKillAndResumeContextCancel is the end-to-end acceptance check:
// cancel a sweep mid-run, rerun with resume enabled, and the final table
// must be byte-identical to an uninterrupted run, with completed cells
// replayed from the journal and in-flight cells re-simulated.
func TestKillAndResumeContextCancel(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := interrupt(t, dir, ctx, cancel); err == nil {
		t.Fatal("interrupted sweep reported no error")
	}
	resumeAndCheck(t, dir, "")
}

// TestKillAndResumeSIGTERM drives the same path through a real signal:
// the sweep's context comes from signal.NotifyContext and the "kill" is
// a SIGTERM to our own process.
func TestKillAndResumeSIGTERM(t *testing.T) {
	dir := t.TempDir()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	err := interrupt(t, dir, ctx, func() {
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
	})
	if err == nil {
		t.Fatal("SIGTERM'd sweep reported no error")
	}
	stop()
	resumeAndCheck(t, dir, "")
}

// TestResumeCorruptJournalTail damages the journal's tail — a torn
// final record plus trailing garbage — and asserts the rerun recovers:
// the damaged records are truncated with a footnoted warning, their
// cells re-simulated, and the values identical to the reference.
func TestResumeCorruptJournalTail(t *testing.T) {
	dir := t.TempDir()
	opts := resumeOpts()
	opts.StateDir = dir
	r := exp.NewRunner(opts)
	if err := r.EnableResume(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Figure5(); err != nil {
		t.Fatal(err)
	}
	r.Close()

	// Tear the last record and append garbage after it.
	path := exp.JournalPath(dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-10); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("\n{\"crc\":1,\"rec\":{\"key\":\"bogus")
	f.Close()

	resumeAndCheck(t, dir, "warning: journal")
}

// TestResumeIgnoresLeftoverCheckpoints resumes a state dir as older
// versions left it: a journal beside a ckpt/ directory of mid-run
// checkpoints. The journal's cells replay, the rest re-simulate, the
// table is byte-identical to an uninterrupted run, and ckpt/ is left
// as it was.
func TestResumeIgnoresLeftoverCheckpoints(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := interrupt(t, dir, ctx, cancel); err == nil {
		t.Fatal("interrupted sweep reported no error")
	}
	ckpt := filepath.Join(dir, "ckpt", "0123456789abcdef.ckpt")
	if err := os.MkdirAll(filepath.Dir(ckpt), 0o755); err != nil {
		t.Fatal(err)
	}
	junk := []byte("RVPCKPT\nnot a checkpoint any version reads")
	if err := os.WriteFile(ckpt, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	resumeAndCheck(t, dir, "")
	if got, err := os.ReadFile(ckpt); err != nil || string(got) != string(junk) {
		t.Errorf("leftover checkpoint touched: %q, %v", got, err)
	}
}
