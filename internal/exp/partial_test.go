package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"rvpsim/internal/faultinject"
	"rvpsim/internal/stats"
)

// gridDrivers are the drivers that build their tables from a grid of
// simulations (every result driver but Figure 1's profiler table), in
// the order cmd/experiments runs them.
var gridDrivers = []struct {
	name string
	run  func(*Runner) ([]*stats.Table, error)
}{
	{"fig3", one((*Runner).Figure3)},
	{"fig4", one((*Runner).Figure4)},
	{"fig5", one((*Runner).Figure5)},
	{"fig6", one((*Runner).Figure6)},
	{"tab2", func(r *Runner) ([]*stats.Table, error) {
		cov, acc, err := r.Table2()
		return []*stats.Table{cov, acc}, err
	}},
	{"fig7", one((*Runner).Figure7)},
	{"fig8", one((*Runner).Figure8)},
	{"storage", one((*Runner).StorageTable)},
	{"threshold", one((*Runner).ThresholdTable)},
}

func one(f func(*Runner) (*stats.Table, error)) func(*Runner) ([]*stats.Table, error) {
	return func(r *Runner) ([]*stats.Table, error) {
		t, err := f(r)
		return []*stats.Table{t}, err
	}
}

// partialFaults are fault configurations that leave tables partial: a
// workload failing on its first run, one failing part-way through its
// series, a failure and a panic in two workloads at once, and a
// transient fault retried into a later failure. A run at 20k passes
// about 21 commit batches.
var partialFaults = []struct {
	name   string
	faults map[string]faultinject.Config
	want   string // digest of every grid driver's tables and error
}{
	{"li_fail1", map[string]faultinject.Config{"li": {FailAfter: 1}},
		"fdc7785873ca2d78387471cbcf311a7c5a6ed358ae8d213bf3e81e323e3d9378"},
	{"mgrid_fail45", map[string]faultinject.Config{"mgrid": {FailAfter: 45}},
		"0642ba08d47711dfdc71da92a896961b454927269270de8f3ff723384b06b508"},
	{"hydro2d_fail70_go_panic30", map[string]faultinject.Config{
		"hydro2d": {FailAfter: 70}, "go": {PanicAfter: 30}},
		"f5e035694ca6750eb22e4f07de72559173cd88e8adaca90f0ab0d3376718db50"},
	{"su2cor_transient1_fail50", map[string]faultinject.Config{"su2cor": {Transient: 1, FailAfter: 50}},
		"ee8edd6561320ba9d845ef6c1b88eba626582fff6bc9792d9c91f7402569f661"},
}

// TestPartialTablesPinned runs every grid driver at 20k under each of
// partialFaults, each driver on a fresh Runner, and pins a digest of the
// rendered tables plus the joined error. The benchmark's goldens cover
// only successful tables; this keeps ERR cells, "not measured" reasons,
// footnotes and partial averages fixed. A fault injector counts every
// commit batch of its workload across runs, so the digest also pins the
// order in which each workload's cells run.
func TestPartialTablesPinned(t *testing.T) {
	for _, fc := range partialFaults {
		t.Run(fc.name, func(t *testing.T) {
			var out strings.Builder
			for _, d := range gridDrivers {
				r := NewRunner(Options{Insts: 20_000, ProfileInsts: 5_000, Threshold: 0.80, Parallel: true, Faults: fc.faults})
				tables, err := d.run(r)
				if err == nil {
					t.Fatalf("%s: no error under injected faults", d.name)
				}
				for _, tab := range tables {
					out.WriteString(tab.String())
				}
				out.WriteString(err.Error() + "\n")
			}
			sum := sha256.Sum256([]byte(out.String()))
			if got := hex.EncodeToString(sum[:]); got != fc.want {
				t.Errorf("partial tables digest %s, want %s; tables:\n%s", got, fc.want, out.String())
			}
		})
	}
}
