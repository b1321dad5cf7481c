package rvpsim_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"rvpsim"
)

const testSrc = `
.text
.proc main
main:
        li      r9, 2000
outer:
        lda     r2, table
        li      r1, 8
loop:
        ldq     r3, 0(r2)
        add     r4, r4, r3
        addi    r2, r2, 8
        subi    r1, r1, 1
        bne     r1, loop
        subi    r9, r9, 1
        bne     r9, outer
        halt
.endproc
.data
.org 0x100000
table:  .quad 3, 3, 3, 3, 3, 3, 3, 3
`

func TestFacadeAssembleAndRun(t *testing.T) {
	prog, err := rvpsim.Assemble("t", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name() != "t" || prog.Len() == 0 {
		t.Errorf("program meta wrong: %s %d", prog.Name(), prog.Len())
	}
	st, err := rvpsim.Run(context.Background(), prog, rvpsim.BaselineConfig(), rvpsim.MustPredictor("none"), rvpsim.RunOptions{MaxInsts: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 50_000 || st.IPC() <= 0 {
		t.Errorf("run stats wrong: %+v", st)
	}
}

func TestFacadeWorkloads(t *testing.T) {
	names := rvpsim.Workloads()
	if len(names) != 9 {
		t.Fatalf("workloads = %v", names)
	}
	prog, err := rvpsim.Workload("li")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Len() == 0 {
		t.Error("empty workload")
	}
	if _, err := rvpsim.Workload("bogus"); err == nil {
		t.Error("bogus workload accepted")
	}
}

func TestFacadePredictors(t *testing.T) {
	prog, err := rvpsim.Assemble("t", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	drvp, err := rvpsim.NewDynamicRVPWith(rvpsim.DefaultCounterConfig())
	if err != nil {
		t.Fatal(err)
	}
	lvp, err := rvpsim.NewLVPWith(rvpsim.DefaultLVPConfig())
	if err != nil {
		t.Fatal(err)
	}
	preds := []rvpsim.Predictor{drvp, lvp}
	for _, name := range rvpsim.Predictors() {
		preds = append(preds, rvpsim.MustPredictor(name))
	}
	if _, err := rvpsim.NewPredictor("drvp"); !errors.Is(err, rvpsim.ErrConfig) {
		t.Errorf("unknown predictor name: want ErrConfig, got %v", err)
	}
	for _, p := range preds {
		st, err := rvpsim.Run(context.Background(), prog, rvpsim.BaselineConfig(), p, rvpsim.RunOptions{MaxInsts: 30_000})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if st.Committed == 0 {
			t.Errorf("%s: no instructions committed", p.Name())
		}
	}
}

func TestFacadeProfileHintsAndStatic(t *testing.T) {
	prog, err := rvpsim.Assemble("t", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := rvpsim.ProfileProgram(prog, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	reuse := prof.LoadReuse()
	if reuse.Same < 0.9 {
		t.Errorf("constant-table load reuse = %.2f, want high", reuse.Same)
	}
	marked := prof.MarkedLoads(0.8, rvpsim.SupportLiveLV)
	if len(marked) == 0 {
		t.Fatal("no loads marked for static RVP")
	}
	hints := prof.Hints(0.8, rvpsim.SupportDeadLV, false)
	st, err := rvpsim.Run(context.Background(), prog, rvpsim.BaselineConfig(), rvpsim.StaticRVP(marked, hints), rvpsim.RunOptions{MaxInsts: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if st.Predicted == 0 {
		t.Error("static RVP made no predictions")
	}
	if st.Accuracy() < 0.95 {
		t.Errorf("static RVP accuracy %.2f on a constant table", st.Accuracy())
	}
}

func TestFacadeReallocate(t *testing.T) {
	prog, err := rvpsim.Workload("hydro2d")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := rvpsim.ProfileProgram(prog, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	rewritten, report, err := rvpsim.Reallocate(prog, prof, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if rewritten.Len() != prog.Len() {
		t.Error("re-allocation changed instruction count")
	}
	if report.LVApplied+report.DeadApplied+report.LVDropped+report.DeadDropped == 0 {
		t.Error("re-allocation saw no reuse candidates on hydro2d")
	}
	if _, err := rvpsim.Run(context.Background(), rewritten, rvpsim.BaselineConfig(), rvpsim.MustPredictor("rvp"), rvpsim.RunOptions{MaxInsts: 50_000}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSpeedupOnReusefulProgram(t *testing.T) {
	prog, err := rvpsim.Workload("m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rvpsim.BaselineConfig()
	base, err := rvpsim.Run(context.Background(), prog, cfg, rvpsim.MustPredictor("none"), rvpsim.RunOptions{MaxInsts: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	rvp, err := rvpsim.Run(context.Background(), prog, cfg, rvpsim.MustPredictor("rvp"), rvpsim.RunOptions{MaxInsts: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	if rvp.Cycles >= base.Cycles {
		t.Errorf("no RVP speedup on m88ksim: %d vs %d cycles", rvp.Cycles, base.Cycles)
	}
}

func TestFacadeExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers are exercised in internal/exp")
	}
	e := rvpsim.NewExperiments(rvpsim.ExperimentOptions{
		Insts: 40_000, ProfileInsts: 20_000, Threshold: 0.8, Parallel: true,
	})
	tab, err := e.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.RowLabels()) != 4 {
		t.Errorf("Figure1 rows = %v", tab.RowLabels())
	}
	if s := e.Table1(); s == "" {
		t.Error("Table1 empty")
	}
	if md := tab.Markdown(); md == "" {
		t.Error("markdown rendering empty")
	}
}

func TestFacadeRunTraced(t *testing.T) {
	prog, err := rvpsim.Assemble("t", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	reg := rvpsim.NewRegistry()
	st, err := rvpsim.Run(context.Background(), prog, rvpsim.BaselineConfig(), rvpsim.MustPredictor("rvp"),
		rvpsim.RunOptions{MaxInsts: 10_000, Metrics: reg, Trace: func(tr rvpsim.TraceRecord) { n++ }})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(n) != st.Committed {
		t.Errorf("traced %d records, committed %d", n, st.Committed)
	}
	if got := reg.Counter("rvpsim_committed_total", "").Value(); got != int64(st.Committed) {
		t.Errorf("metrics count %d commits, run %d", got, st.Committed)
	}
	if prog.InstString(0) == "" || prog.InstString(1<<30) != "<out of range>" {
		t.Error("InstString misbehaves")
	}
	if prog.Disassemble() == "" {
		t.Error("Disassemble empty")
	}
}

func TestFacadeStorageBits(t *testing.T) {
	bits := func(name string) int { return rvpsim.MustPredictor(name).StorageBits() }
	if bits("rvp") != 3072 {
		t.Errorf("RVP storage = %d, want 3072", bits("rvp"))
	}
	if bits("lvp_all") <= bits("rvp") {
		t.Error("LVP storage not above RVP")
	}
	if bits("context") <= bits("stride") {
		t.Error("context storage not above stride")
	}
	if bits("none") != 0 {
		t.Error("no prediction has storage")
	}
}

func TestFacadeCheckpointResume(t *testing.T) {
	prog, err := rvpsim.Workload("li")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rvpsim.BaselineConfig()
	ref, err := rvpsim.Run(context.Background(), prog, cfg, rvpsim.MustPredictor("rvp"), rvpsim.RunOptions{MaxInsts: 30_000})
	if err != nil {
		t.Fatal(err)
	}

	// Run the first 12k instructions, checkpointing to disk along the way.
	path := filepath.Join(t.TempDir(), "run.ckpt")
	saves := 0
	_, err = rvpsim.Run(context.Background(), prog, cfg, rvpsim.MustPredictor("rvp"), rvpsim.RunOptions{
		MaxInsts:        12_000,
		CheckpointEvery: 4_000,
		OnCheckpoint: func(snap *rvpsim.Snapshot) error {
			saves++
			return rvpsim.SaveCheckpoint(path, snap)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if saves == 0 {
		t.Fatal("no periodic checkpoints taken")
	}

	// Resume from the last on-disk checkpoint: final stats must be
	// identical to the uninterrupted run.
	snap, err := rvpsim.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	resume := rvpsim.RunOptions{MaxInsts: 30_000, From: snap}
	got, err := rvpsim.Run(context.Background(), prog, cfg, rvpsim.MustPredictor("rvp"), resume)
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Errorf("resumed stats differ from uninterrupted run:\ngot  %+v\nwant %+v", got, ref)
	}

	// A resume against the wrong program is corruption, not garbage.
	other, err := rvpsim.Workload("go")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rvpsim.Run(context.Background(), other, cfg, rvpsim.MustPredictor("rvp"), resume); !errors.Is(err, rvpsim.ErrCorrupt) {
		t.Errorf("wrong-program resume: want ErrCorrupt, got %v", err)
	}
	// So is a resume on a machine the snapshot was not taken on.
	if _, err := rvpsim.Run(context.Background(), prog, rvpsim.AggressiveConfig(), rvpsim.MustPredictor("rvp"), resume); !errors.Is(err, rvpsim.ErrCorrupt) {
		t.Errorf("wrong-config resume: want ErrCorrupt, got %v", err)
	}
}

func TestFacadeValidate(t *testing.T) {
	prog, err := rvpsim.Workload("perl")
	if err != nil {
		t.Fatal(err)
	}
	res, err := rvpsim.Validate(prog, rvpsim.BaselineConfig(),
		func() rvpsim.Predictor { return rvpsim.MustPredictor("rvp") }, rvpsim.LockstepOptions{MaxInsts: 20_000, CheckEvery: 5_000})
	if err != nil {
		t.Fatalf("divergence on a correct machine: %v", err)
	}
	if res.Committed == 0 || res.StateChecks == 0 {
		t.Errorf("empty validation run: %+v", res)
	}
}
