package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
)

// Identified is implemented by predictors whose behaviour is a pure
// function of a canonical description of their configuration. Two
// predictors with equal identities make the same decisions on every
// program from the same starting state, so one simulation stands for
// both; the report name is deliberately left out ("rvp" from the
// registry and a hint-less DynamicRVP named "drvp_none" are one
// predictor). All predictors in this package implement it; a custom
// Predictor that does not is simulated afresh every time (the
// experiment runner checks at run time).
type Identified interface {
	Identity() string
}

// Identity implements Identified.
func (NoPredictor) Identity() string { return "none" }

// Identity implements Identified: the counter table, the loads-only
// filter and the hint set.
func (p *DynamicRVP) Identity() string {
	return fmt.Sprintf("drvp|%+v|loads=%t|hints=%s", p.counters.Config(), p.loadOnly, hintsDigest(p.hints))
}

// Identity implements Identified: the marked set and the hint set.
func (p *StaticRVP) Identity() string {
	idx := make([]int, 0, len(p.marked))
	for i, on := range p.marked {
		if on {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	buf := make([]byte, 0, 8*len(idx))
	for _, i := range idx {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(i))
	}
	return "srvp|marked=" + digest(buf) + "|hints=" + hintsDigest(p.hints)
}

// Identity implements Identified.
func (p *GabbayRVP) Identity() string {
	return fmt.Sprintf("grp|%+v|loads=%t", p.cfg, p.loadOnly)
}

// Identity implements Identified.
func (p *LVP) Identity() string { return fmt.Sprintf("lvp|%+v", p.cfg) }

// Identity implements Identified.
func (p *StridePredictor) Identity() string { return fmt.Sprintf("stride|%+v", p.cfg) }

// Identity implements Identified.
func (p *ContextPredictor) Identity() string { return fmt.Sprintf("context|%+v", p.cfg) }

// hintsDigest is a canonical digest of a hint set: entries sorted by
// instruction index, so map iteration order never leaks in, and a nil
// set equals an empty one.
func hintsDigest(h ReuseHints) string {
	idx := make([]int, 0, len(h))
	for i := range h {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	buf := make([]byte, 0, 10*len(idx))
	for _, i := range idx {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(i))
		buf = append(buf, byte(h[i].Kind), byte(h[i].Reg))
	}
	return digest(buf)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}
