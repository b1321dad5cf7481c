package regalloc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"rvpsim/internal/profile"
	"rvpsim/internal/regalloc"
	"rvpsim/internal/workloads"
)

// pinnedReallocInsts is the profiling budget of every pinned
// re-allocation.
const pinnedReallocInsts = 500_000

// pinnedReallocDigests holds, per workload (Figure 7 runs four of
// them), the first 12 bytes of the SHA-256 of its re-allocation at
// threshold 0.80: every rewritten instruction, the applied and dropped
// counts, and the dropped reuses in pruning order. They were recorded
// when the re-allocator still kept its own copy of the calling
// convention; a re-allocator that claims the same model must keep them.
var pinnedReallocDigests = map[string]string{
	"go":      "e09072a140941f537dc11f3d",
	"hydro2d": "51b4623324e3a76ed1e98787",
	"ijpeg":   "b9a5581957a6bed3acc3b667",
	"li":      "e4817e63bd219fa2381b1aa9",
	"m88ksim": "4423298d71f35d204e66ec36",
	"mgrid":   "6104d6b6e7678e84154fe7fe",
	"perl":    "1039102a66ee3f199fcc6bf6",
	"su2cor":  "eca3db9e615baf9f06db4ba1",
	"turb3d":  "721d8bbce6f5079c2a31ec96",
}

func reallocDigest(res *regalloc.Result) string {
	h := sha256.New()
	for i, in := range res.Prog.Insts {
		fmt.Fprintf(h, "%d %+v\n", i, in)
	}
	fmt.Fprintf(h, "dead %d/%d lv %d/%d\n", res.DeadApplied, res.DeadDropped, res.LVApplied, res.LVDropped)
	for _, d := range res.Dropped {
		fmt.Fprintf(h, "dropped %+v\n", d)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// TestPinnedReallocDigests re-allocates every workload from its
// profile and compares the digests with pinnedReallocDigests.
func TestPinnedReallocDigests(t *testing.T) {
	for _, name := range workloads.Names() {
		prog, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := profile.Run(prog, profile.Options{MaxInsts: pinnedReallocInsts})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := regalloc.Reallocate(prog, pr, pr.Lists(0.80, false, 0))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := reallocDigest(res), pinnedReallocDigests[name]; got != want {
			t.Errorf("%q: %q, // digest changed from %q", name, got, want)
		}
	}
}
