package pipeline_test

import (
	"errors"
	"reflect"
	"testing"

	"rvpsim/internal/checkpoint"
	"rvpsim/internal/core"
	"rvpsim/internal/faultinject"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/program"
	"rvpsim/internal/simerr"
	"rvpsim/internal/workloads"
)

func rvp() core.Predictor { return core.MustDynamicRVP(core.DefaultCounterConfig()) }

// resnapshot restores snap, resumes it for zero instructions and takes a
// new snapshot: what a restore rebuilt, as the simulator writes it. It
// also returns the restored issue books' length.
func resnapshot(t *testing.T, snap *pipeline.Snapshot, prog *program.Program) (*pipeline.Snapshot, int) {
	t.Helper()
	sim, err := pipeline.RestoreSim(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.ResumeContext(t.Context(), snap, prog, rvp(), snap.Stats.Committed); err != nil {
		t.Fatal(err)
	}
	out, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return out, pipeline.IssueRingLen(sim)
}

// issueSpan is how far past the resume dispatch cycle a snapshot's issue
// books reach.
func issueSpan(snap *pipeline.Snapshot) int64 {
	var hi int64
	t := &snap.Timing
	for _, slots := range [][]pipeline.RingSlot{t.IssueCap, t.IntCap, t.LSCap, t.FPCap} {
		for _, e := range slots {
			hi = max(hi, e.Stamp-t.LastDispatch)
		}
	}
	return hi
}

// TestIssueGrowthResume stretches memory latencies far enough that the
// issue books must grow, checkpoints at every commit batch, and resumes
// from a checkpoint taken before the first growth and from one whose
// issue books reach past the starting length. Both resumed runs, each
// through the on-disk container with the injector as it was at the
// checkpoint, must end with the uninterrupted run's Stats.
func TestIssueGrowthResume(t *testing.T) {
	const budget = 40_000
	prog, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.BaselineConfig()

	type ckpt struct {
		data []byte
		inj  faultinject.Injector
		ring int
		span int64
	}
	var ckpts []ckpt
	sim := pipeline.MustNew(cfg)
	inj := faultinject.New(faultinject.Config{MemEvery: 1000, MemExtra: 3000})
	sim.SetFaults(inj)
	sim.SetCheckpoint(1, func(snap *pipeline.Snapshot) error {
		data, err := checkpoint.Encode(snap)
		ckpts = append(ckpts, ckpt{data, *inj, pipeline.IssueRingLen(sim), issueSpan(snap)})
		return err
	})
	want, err := sim.Run(prog, rvp(), budget)
	if err != nil {
		t.Fatal(err)
	}

	var before, after *ckpt
	for i := range ckpts {
		c := &ckpts[i]
		if c.ring == pipeline.IssueRingStart {
			before = c
		} else if after == nil && c.span >= pipeline.IssueRingStart {
			after = c
		}
	}
	if before == nil || after == nil {
		t.Fatalf("no checkpoint before growth (%v) or with a grown span (%v)", before != nil, after != nil)
	}
	for name, c := range map[string]*ckpt{"before growth": before, "after growth": after} {
		snap, err := checkpoint.Decode(c.data)
		if err != nil {
			t.Fatal(err)
		}
		again, ring := resnapshot(t, snap, prog)
		if !reflect.DeepEqual(again.Timing, snap.Timing) {
			t.Errorf("%s: restoring and snapshotting again changed the timing state", name)
		}
		if int64(ring) <= c.span {
			t.Errorf("%s: restored issue books have %d slots, fewer than the span %d they hold", name, ring, c.span)
		}
		resumed, err := pipeline.RestoreSim(snap)
		if err != nil {
			t.Fatal(err)
		}
		inj := c.inj
		resumed.SetFaults(&inj)
		got, err := resumed.ResumeContext(t.Context(), snap, prog, rvp(), budget)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s (committed %d): resumed Stats differ from the uninterrupted run:\n%v\nvs\n%v", name, snap.Stats.Committed, got, want)
		}
		if n := pipeline.IssueRingLen(resumed); n == pipeline.IssueRingStart {
			t.Errorf("%s: issue books never grew after the resume", name)
		}
	}
}

// loadFixedRingCheckpoint reads a checkpoint written before the in-order
// books were reduced to one entry and the issue books made growable: its
// RingSlots list every cycle booked since the floor, laid out by the
// fixed 64K-cycle rings.
func loadFixedRingCheckpoint(t *testing.T) *pipeline.Snapshot {
	t.Helper()
	return loadGzipCheckpoint(t, "testdata/hydro2d_30001_ports1_reissue.ckpt.gz")
}

// TestResumeFixedRingCheckpoint resumes a checkpoint written with the
// fixed rings (hydro2d, rvp, one predict port, reissue recovery, taken at
// 30001 committed instructions) and checks the run ends exactly as an
// uninterrupted one did when the checkpoint was written.
func TestResumeFixedRingCheckpoint(t *testing.T) {
	const (
		budget = 60_000
		// The uninterrupted run's Stats, recorded with the fixed rings.
		wantStats = "cycles=56895 insts=60000 IPC=1.055 loads=22043 stores=3149 pred=24039 (40.1% of insts, 99.9% correct) brMiss=2.11% stalls=window:2215/intIQ:46719/fpIQ:0"
	)
	snap := loadFixedRingCheckpoint(t)
	tm := &snap.Timing
	if len(tm.CommitCap) < 2 || len(tm.PortCap) == 0 || len(tm.FPCap) == 0 {
		t.Fatalf("fixture does not exercise the old layout: %d commit, %d port, %d fp entries",
			len(tm.CommitCap), len(tm.PortCap), len(tm.FPCap))
	}
	prog, err := workloads.ByName("hydro2d")
	if err != nil {
		t.Fatal(err)
	}

	// Restored and written again, the in-order books keep only the entry
	// at the last dispatch, commit and port cycle; the issue books keep
	// every entry.
	at := func(slots []pipeline.RingSlot, stamp int64) []pipeline.RingSlot {
		for _, e := range slots {
			if e.Stamp == stamp {
				return []pipeline.RingSlot{e}
			}
		}
		return nil
	}
	want := *tm
	want.DispatchCap = at(tm.DispatchCap, tm.LastDispatch)
	want.CommitCap = at(tm.CommitCap, tm.LastCommit)
	want.PortCap = tm.PortCap[len(tm.PortCap)-1:]
	again, _ := resnapshot(t, snap, prog)
	if !reflect.DeepEqual(again.Timing, want) {
		t.Errorf("books restored from the fixed rings:\n%+v %+v %+v\nwant\n%+v %+v %+v",
			again.Timing.DispatchCap, again.Timing.CommitCap, again.Timing.PortCap, want.DispatchCap, want.CommitCap, want.PortCap)
	}

	sim, err := pipeline.RestoreSim(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.ResumeContext(t.Context(), snap, prog, rvp(), budget)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != wantStats {
		t.Errorf("resumed run:\n%s\nwant\n%s", got, wantStats)
	}
	fresh, err := pipeline.MustNew(snap.Config).Run(prog, rvp(), budget)
	if err != nil {
		t.Fatal(err)
	}
	if got != fresh {
		t.Errorf("resumed Stats differ from an uninterrupted run:\n%+v\nvs\n%+v", got, fresh)
	}
}

// TestRestoreRejectsCorruptSlot checks that a RingSlot whose Slot does
// not match its Stamp in the 64K layout, a stamp or count that cannot
// have been booked, or a negative dispatch cycle (which would size the
// issue books from it) fails the resume with simerr.ErrCorrupt.
func TestRestoreRejectsCorruptSlot(t *testing.T) {
	prog, err := workloads.ByName("hydro2d")
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func(*pipeline.TimingState){
		"issue slot":     func(tm *pipeline.TimingState) { tm.IssueCap[0].Slot ^= 1 },
		"commit slot":    func(tm *pipeline.TimingState) { tm.CommitCap[0].Slot = 1 << 16 },
		"negative stamp": func(tm *pipeline.TimingState) { tm.FPCap[0] = pipeline.RingSlot{Slot: 0, Stamp: -1 << 16, Count: 1} },
		"count":          func(tm *pipeline.TimingState) { tm.PortCap[0].Count = 1 << 16 },
		"dispatch cycle": func(tm *pipeline.TimingState) { tm.LastDispatch = -1 << 62 },
	} {
		snap := loadFixedRingCheckpoint(t)
		corrupt(&snap.Timing)
		sim, err := pipeline.RestoreSim(snap)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sim.ResumeContext(t.Context(), snap, prog, rvp(), 40_000)
		if !errors.Is(err, simerr.ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}
