package bench

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"

	"rvpsim/internal/obs"
)

// goldenJSON holds the expected outputs: a digest of every sim-hot cell's
// Stats.String() and of every figure driver's rendered text, keyed by the
// instruction budget they were produced at. A simulator change that claims
// to keep the model must keep these; only a change that says it alters the
// model regenerates them (rvpbench -update-golden).
//
//go:embed testdata/golden.json
var goldenJSON []byte

// GoldenPath is the golden file's location relative to the repository root.
const GoldenPath = "internal/bench/testdata/golden.json"

type golden struct {
	SimHot  map[string]map[string]string `json:"sim_hot"` // budget -> "workload/predictor" -> digest
	Figures map[string]map[string]string `json:"figures"` // budget -> driver -> digest
}

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return golden{}, fmt.Errorf("golden: %w", err)
	}
	return g, nil
}

func budgetKey(n uint64) string { return strconv.FormatUint(n, 10) }

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:12])
}

// checkGolden compares got (name -> digest) with the golden entries for
// this budget, failing one operation per mismatch or missing entry.
func checkGolden(rep *Report, what string, want map[string]string, got map[string]string) {
	for name, d := range got {
		if w, ok := want[name]; !ok || w != d {
			rep.fail("%s %s: output %s, golden %q", what, name, d, w)
		}
	}
}

// UpdateGolden recomputes the golden digests at every budget given and
// writes them to path. Run it only in a change that says it alters the
// model's output.
func UpdateGolden(ctx context.Context, path string, budgets ...Budget) error {
	g := golden{SimHot: map[string]map[string]string{}, Figures: map[string]map[string]string{}}
	for _, b := range budgets {
		o := Options{Budget: b}
		s, err := setupSimHot(ctx, o)
		if err != nil {
			return err
		}
		sim := s.(*simHot)
		p, err := sim.pass(ctx, nil)
		if err != nil {
			return err
		}
		for label, e := range p.errs {
			return fmt.Errorf("%s: %w", label, e)
		}
		g.SimHot[budgetKey(b.SimInsts)] = p.digests
		r := newFigureRunner(ctx, o, nil)
		res := figureRep(r, nil, nil, obs.SpanContext{})
		if err := errors.Join(append(res.errs, r.Close())...); err != nil {
			return err
		}
		g.Figures[budgetKey(b.FigInsts)] = res.digests
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
