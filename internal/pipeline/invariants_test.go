package pipeline_test

import (
	"testing"

	"rvpsim/internal/core"
	"rvpsim/internal/obs"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/progtest"
)

// TestTimingInvariants drives random programs through the simulator under
// several predictors and checks per-instruction event ordering via the
// tracer: fetch <= dispatch < issue < done < commit, commit order is
// monotone, and the prediction accounting is internally consistent.
func TestTimingInvariants(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 6
	}
	preds := []func() core.Predictor{
		func() core.Predictor { return core.NoPredictor{} },
		func() core.Predictor { return core.MustDynamicRVP(core.DefaultCounterConfig()) },
		func() core.Predictor { return core.MustLVP(core.DefaultLVPConfig(), "lvp") },
	}
	for seed := 1; seed <= seeds; seed++ {
		p := progtest.Random(uint64(seed))
		for pi, mk := range preds {
			for _, rec := range []pipeline.Recovery{pipeline.RecoverRefetch, pipeline.RecoverReissue, pipeline.RecoverSelective} {
				cfg := pipeline.BaselineConfig()
				cfg.Recovery = rec
				sim := pipeline.MustNew(cfg)
				var lastCommit int64
				var traced, predicted, correct uint64
				bad := false
				sim.SetTracer(func(tr pipeline.TraceRecord) {
					traced++
					if tr.Predicted {
						predicted++
						if tr.Correct {
							correct++
						}
					}
					if !(tr.FetchAt <= tr.Dispatch && tr.Dispatch < tr.IssueAt &&
						tr.IssueAt < tr.DoneAt && tr.DoneAt < tr.CommitAt) {
						if !bad {
							t.Errorf("seed %d pred %d %v: event order violated: %+v", seed, pi, rec, tr)
						}
						bad = true
					}
					if tr.CommitAt < lastCommit {
						if !bad {
							t.Errorf("seed %d pred %d %v: commit order regressed: %d after %d",
								seed, pi, rec, tr.CommitAt, lastCommit)
						}
						bad = true
					}
					lastCommit = tr.CommitAt
				})
				st, err := sim.Run(p, mk(), 20_000)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if traced != st.Committed {
					t.Errorf("seed %d: traced %d != committed %d", seed, traced, st.Committed)
				}
				if predicted != st.Predicted || correct != st.PredictCorrect {
					t.Errorf("seed %d: trace prediction counts disagree with stats", seed)
				}
				if st.PredictCorrect+st.PredictWrong != st.Predicted {
					t.Errorf("seed %d: correct+wrong != predicted", seed)
				}
				if st.IPC() > float64(cfg.IssueWidth) {
					t.Errorf("seed %d: IPC %.2f exceeds issue width", seed, st.IPC())
				}
			}
		}
	}
}

// TestObserverInvariants runs with both a metrics observer and a tracer
// attached and checks that the commit stream and the registry agree:
// records arrive in commit order, stage timestamps are ordered, and both
// the record count and the prediction accounting reconcile with the
// registry snapshot and the run Stats.
func TestObserverInvariants(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	for seed := 1; seed <= seeds; seed++ {
		p := progtest.Random(uint64(seed))
		sim := pipeline.MustNew(pipeline.BaselineConfig())
		o := obs.NewObserver()
		sim.SetObserver(o)
		var events []pipeline.TraceRecord
		sim.SetTracer(func(tr pipeline.TraceRecord) { events = append(events, tr) })
		st, err := sim.Run(p, core.MustDynamicRVP(core.DefaultCounterConfig()), 20_000)
		if err != nil {
			t.Fatal(err)
		}

		var lastCommit int64
		var predicted, correct uint64
		for i, e := range events {
			if !(e.FetchAt <= e.Dispatch && e.Dispatch < e.IssueAt && e.IssueAt < e.DoneAt && e.DoneAt < e.CommitAt) {
				t.Fatalf("seed %d: record %d stage order violated: %+v", seed, i, e)
			}
			if e.CommitAt < lastCommit {
				t.Fatalf("seed %d: record %d commit %d regressed below %d", seed, i, e.CommitAt, lastCommit)
			}
			lastCommit = e.CommitAt
			if e.Predicted {
				predicted++
				if e.Correct {
					correct++
				}
			}
		}
		if uint64(len(events)) != st.Committed {
			t.Errorf("seed %d: %d records != %d committed", seed, len(events), st.Committed)
		}
		if predicted != st.Predicted || correct != st.PredictCorrect {
			t.Errorf("seed %d: record prediction counts (%d/%d) disagree with stats (%d/%d)",
				seed, predicted, correct, st.Predicted, st.PredictCorrect)
		}

		// The registry snapshot must agree with the run Stats: the sim
		// flushes its final deltas at end of run, so a fresh registry
		// holds exactly one run's totals.
		snap := o.Registry().Snapshot()
		recon := []struct {
			metric string
			want   int64
		}{
			{"rvpsim_committed_total", int64(st.Committed)},
			{"rvpsim_cycles_total", st.Cycles},
			{"rvpsim_loads_total", int64(st.Loads)},
			{"rvpsim_stores_total", int64(st.Stores)},
			{"rvpsim_vp_predicted_total", int64(st.Predicted)},
			{"rvpsim_vp_correct_total", int64(st.PredictCorrect)},
			{"rvpsim_vp_wrong_total", int64(st.PredictWrong)},
			{"rvpsim_cond_mispredict_total", int64(st.CondMispredict)},
			{"rvpsim_stall_window_cycles_total", st.StallWindow},
		}
		for _, c := range recon {
			if got := snap.Counters[c.metric]; got != c.want {
				t.Errorf("seed %d: %s = %d, registry disagrees with Stats %d", seed, c.metric, got, c.want)
			}
		}
		for _, hname := range []string{"rvpsim_inst_latency_cycles", "rvpsim_issue_wait_cycles", "rvpsim_window_residency_cycles"} {
			h, ok := snap.Histograms[hname]
			if !ok {
				t.Errorf("seed %d: histogram %s missing from snapshot", seed, hname)
				continue
			}
			if h.Count != int64(st.Committed) {
				t.Errorf("seed %d: %s count %d != committed %d", seed, hname, h.Count, st.Committed)
			}
		}
	}
}

// TestObserverMatchesUnobservedRun: attaching an observer must not
// change timing or architectural results.
func TestObserverMatchesUnobservedRun(t *testing.T) {
	for seed := 1; seed <= 5; seed++ {
		p := progtest.Random(uint64(seed))
		plain, err := pipeline.MustNew(pipeline.BaselineConfig()).
			Run(p, core.MustDynamicRVP(core.DefaultCounterConfig()), 20_000)
		if err != nil {
			t.Fatal(err)
		}
		sim := pipeline.MustNew(pipeline.BaselineConfig())
		sim.SetObserver(obs.NewObserver())
		observed, err := sim.Run(p, core.MustDynamicRVP(core.DefaultCounterConfig()), 20_000)
		if err != nil {
			t.Fatal(err)
		}
		if plain != observed {
			t.Errorf("seed %d: observed run stats differ from plain run:\n  plain:    %v\n  observed: %v",
				seed, plain, observed)
		}
	}
}

// TestCyclesMonotoneInBudget: simulating more instructions never takes
// fewer cycles, and prefix behaviour is consistent.
func TestCyclesMonotoneInBudget(t *testing.T) {
	for seed := 1; seed <= 10; seed++ {
		p := progtest.Random(uint64(seed))
		var prev int64
		for _, budget := range []uint64{2_000, 8_000, 20_000} {
			sim := pipeline.MustNew(pipeline.BaselineConfig())
			st, err := sim.Run(p, core.MustDynamicRVP(core.DefaultCounterConfig()), budget)
			if err != nil {
				t.Fatal(err)
			}
			if st.Cycles < prev {
				t.Errorf("seed %d: cycles decreased with larger budget: %d < %d", seed, st.Cycles, prev)
			}
			prev = st.Cycles
		}
	}
}

// TestPredictionNeverChangesArchitecture: the oracle-driven model must
// commit the same instruction stream regardless of the predictor (value
// prediction is performance-speculation only).
func TestPredictionNeverChangesArchitecture(t *testing.T) {
	for seed := 1; seed <= 10; seed++ {
		p := progtest.Random(uint64(seed))
		var idxNo, idxRVP []int
		simA := pipeline.MustNew(pipeline.BaselineConfig())
		simA.SetTracer(func(tr pipeline.TraceRecord) { idxNo = append(idxNo, tr.Index) })
		if _, err := simA.Run(p, core.NoPredictor{}, 5_000); err != nil {
			t.Fatal(err)
		}
		simB := pipeline.MustNew(pipeline.BaselineConfig())
		simB.SetTracer(func(tr pipeline.TraceRecord) { idxRVP = append(idxRVP, tr.Index) })
		if _, err := simB.Run(p, core.MustDynamicRVP(core.DefaultCounterConfig()), 5_000); err != nil {
			t.Fatal(err)
		}
		if len(idxNo) != len(idxRVP) {
			t.Fatalf("seed %d: committed stream lengths differ", seed)
		}
		for i := range idxNo {
			if idxNo[i] != idxRVP[i] {
				t.Fatalf("seed %d: committed stream diverged at %d", seed, i)
			}
		}
	}
}

// TestWiderMachineNeverSlower: the 16-wide machine is never slower than
// the 8-wide on the same program and predictor.
func TestWiderMachineNeverSlower(t *testing.T) {
	for seed := 1; seed <= 8; seed++ {
		p := progtest.Random(uint64(seed))
		a, err := pipeline.MustNew(pipeline.BaselineConfig()).Run(p, core.NoPredictor{}, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pipeline.MustNew(pipeline.AggressiveConfig()).Run(p, core.NoPredictor{}, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		if b.Cycles > a.Cycles {
			t.Errorf("seed %d: 16-wide slower (%d) than 8-wide (%d)", seed, b.Cycles, a.Cycles)
		}
	}
}
