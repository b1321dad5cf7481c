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
// about 21 fault checkpoints.
var partialFaults = []struct {
	name   string
	faults map[string]faultinject.Config
	want   string // digest of every grid driver's tables and error
}{
	{"li_fail1", map[string]faultinject.Config{"li": {FailAfter: 1}},
		"42b55ee0c25e0db8d7a738bc1cb4c0b0f07d0f83118ae3a24f4e8d32734d788f"},
	{"mgrid_fail45", map[string]faultinject.Config{"mgrid": {FailAfter: 45}},
		"2a9eedfdac5bbef4b067605be419ee8decbed767786bbea346fd1fba77b68eeb"},
	{"hydro2d_fail70_go_panic30", map[string]faultinject.Config{
		"hydro2d": {FailAfter: 70}, "go": {PanicAfter: 30}},
		"8ca798614ce562e46296f6889ec805df16f9519c074b63228be617e667273be2"},
	{"su2cor_transient1_fail50", map[string]faultinject.Config{"su2cor": {Transient: 1, FailAfter: 50}},
		"571fff07a2b7120c74d96c134771dcf708685fc6023141f6d73042b44ae5a3d0"},
}

// TestPartialTablesPinned runs every grid driver at 20k under each of
// partialFaults, each driver on a fresh Runner, and pins a digest of the
// rendered tables plus the joined error. The benchmark's goldens cover
// only successful tables; this keeps ERR cells, "not measured" reasons,
// footnotes and partial averages fixed. A fault injector counts every
// checkpoint of its workload across runs, so the digest also pins the
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
