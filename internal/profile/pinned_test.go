package profile_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"rvpsim/internal/profile"
	"rvpsim/internal/workloads"
)

// pinnedProfileInsts is the budget of every pinned profile.
const pinnedProfileInsts = 500_000

// pinnedProfileDigests holds, per workload, the first 12 bytes of the
// SHA-256 of its profile: every InstStats field in index order, the
// totals, and the Lists at 0.80 and 0.90 (all instructions and loads
// only). They were recorded when the profiler still ran each program a
// second time to attribute producers; a profiler that claims the same
// model must keep them.
var pinnedProfileDigests = map[string]string{
	"go":      "cf6240315c66f3242c2298c3",
	"hydro2d": "9b7b153aa5bba91d0c1b2403",
	"ijpeg":   "60ad9a0ba9f598a5ac122627",
	"li":      "eb9fd5e53d74ad9ba92529f4",
	"m88ksim": "a1ff9d832e30b656bca112c8",
	"mgrid":   "2e17339d8b06906135e52adc",
	"perl":    "e86f7cf91b979472452052c1",
	"su2cor":  "4ba0b28dcc00a031babd5e1e",
	"turb3d":  "c110612f250e95ac992a02f7",
}

func profileDigest(pr *profile.Profile) string {
	h := sha256.New()
	fmt.Fprintf(h, "total=%d loads=%d\n", pr.Total, pr.Loads)
	idxs := make([]int, 0, len(pr.Insts))
	for i := range pr.Insts {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		fmt.Fprintf(h, "%d %+v\n", i, *pr.Insts[i])
	}
	for _, th := range []float64{0.80, 0.90} {
		for _, loads := range []bool{false, true} {
			l := pr.Lists(th, loads, 0)
			fmt.Fprintf(h, "lists %.2f %v\n", th, loads)
			// fmt prints maps with sorted keys.
			fmt.Fprintf(h, "same %v\ndead %v\nlive %v\nlv %v\n", l.Same, l.Dead, l.Live, l.LV)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// TestPinnedProfileDigests profiles every workload and compares the
// digests with pinnedProfileDigests.
func TestPinnedProfileDigests(t *testing.T) {
	for _, w := range workloads.All() {
		pr, err := profile.Run(w.Build(), profile.Options{MaxInsts: pinnedProfileInsts})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if got, want := profileDigest(pr), pinnedProfileDigests[w.Name]; got != want {
			t.Errorf("%q: %q, // digest changed from %q", w.Name, got, want)
		}
	}
}
