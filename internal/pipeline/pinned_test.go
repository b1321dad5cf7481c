package pipeline_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"rvpsim/internal/core"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/workloads"
)

// pinnedInsts is the budget of every pinned run.
const pinnedInsts = 100_000

// pinnedConfigs are the machines the benchmark goldens do not reach: the
// predict-port ablation (the only user of the port book) and the 16-wide
// machine under every recovery scheme. The goldens cover the baseline
// machine under selective recovery plus what the figure drivers run.
func pinnedConfigs() map[string]pipeline.Config {
	out := map[string]pipeline.Config{}
	for _, ports := range []int{1, 2} {
		c := pipeline.BaselineConfig()
		c.PredictPorts = ports
		out[fmt.Sprintf("ports%d", ports)] = c
	}
	for _, rec := range []pipeline.Recovery{pipeline.RecoverRefetch, pipeline.RecoverReissue, pipeline.RecoverSelective} {
		c := pipeline.AggressiveConfig()
		c.Recovery = rec
		out["aggressive/"+rec.String()] = c
	}
	return out
}

// pinnedDigests holds, per "config/workload", the first 12 bytes of the
// SHA-256 of the run's Stats.String() followed by every Stats field. They
// were recorded before the cycle books were rewritten, so a bookkeeping
// change that claims to keep the model must keep them.
var pinnedDigests = map[string]string{
	"aggressive/refetch/go":        "2acdf81a768cb9d3bbe3b7fb",
	"aggressive/refetch/hydro2d":   "d04d6c140861adfb6254a61f",
	"aggressive/refetch/ijpeg":     "79d2652419eacdf4c8cd3ae8",
	"aggressive/refetch/li":        "ac5926e2f971fc93f6e1777b",
	"aggressive/refetch/m88ksim":   "6bab1300e6f40f874a8c546d",
	"aggressive/refetch/mgrid":     "aa2b20c5d0d753961ed2180e",
	"aggressive/refetch/perl":      "91af9b7387cd409b9031f086",
	"aggressive/refetch/su2cor":    "0714d586d8c0621978071305",
	"aggressive/refetch/turb3d":    "0212f77504b09c9892397236",
	"aggressive/reissue/go":        "6ad7d6d14701ae54fa9d3450",
	"aggressive/reissue/hydro2d":   "05c0c6b11ad0326f3c77f4b6",
	"aggressive/reissue/ijpeg":     "f0995711be4defef0fc03371",
	"aggressive/reissue/li":        "f665e4107aa904757e01b6d5",
	"aggressive/reissue/m88ksim":   "42aa264bd0cd03a13a0b2d79",
	"aggressive/reissue/mgrid":     "aa2b20c5d0d753961ed2180e",
	"aggressive/reissue/perl":      "91af9b7387cd409b9031f086",
	"aggressive/reissue/su2cor":    "00c0a854386960252f2bd7c1",
	"aggressive/reissue/turb3d":    "e4f2c7b523d855ff1856f973",
	"aggressive/selective/go":      "6ad7d6d14701ae54fa9d3450",
	"aggressive/selective/hydro2d": "05c0c6b11ad0326f3c77f4b6",
	"aggressive/selective/ijpeg":   "f0995711be4defef0fc03371",
	"aggressive/selective/li":      "f665e4107aa904757e01b6d5",
	"aggressive/selective/m88ksim": "42aa264bd0cd03a13a0b2d79",
	"aggressive/selective/mgrid":   "aa2b20c5d0d753961ed2180e",
	"aggressive/selective/perl":    "91af9b7387cd409b9031f086",
	"aggressive/selective/su2cor":  "f6d40a9bb75b4f2a69c52123",
	"aggressive/selective/turb3d":  "e4f2c7b523d855ff1856f973",
	"ports1/go":                    "839120e492362d38e0c566a2",
	"ports1/hydro2d":               "50ebfd031eb117562e50d2e6",
	"ports1/ijpeg":                 "819c11f14781763f28c6a6e0",
	"ports1/li":                    "54811e458e993dca47a4c5ff",
	"ports1/m88ksim":               "ae84f9be897344517ea622bc",
	"ports1/mgrid":                 "f25f48d12b7a84a8f1024d1b",
	"ports1/perl":                  "2497a1a75a90f6e7184acdb5",
	"ports1/su2cor":                "e6c88c8175626ae929572f00",
	"ports1/turb3d":                "97442ed43619b217772f8166",
	"ports2/go":                    "839120e492362d38e0c566a2",
	"ports2/hydro2d":               "27bb60552d025426ad3419e7",
	"ports2/ijpeg":                 "2bbf1dd719cc1f6c342e7948",
	"ports2/li":                    "54811e458e993dca47a4c5ff",
	"ports2/m88ksim":               "8448ac0f74845b6507ddc7d0",
	"ports2/mgrid":                 "f25f48d12b7a84a8f1024d1b",
	"ports2/perl":                  "2497a1a75a90f6e7184acdb5",
	"ports2/su2cor":                "2ad08bd0a14107eb99165a41",
	"ports2/turb3d":                "0c498a12eeedf11cd72bdb4d",
}

func statsDigest(st pipeline.Stats) string {
	sum := sha256.Sum256([]byte(st.String() + "\n" + fmt.Sprintf("%+v", st)))
	return hex.EncodeToString(sum[:12])
}

// TestPinnedConfigDigests runs rvp on all nine workloads under each
// pinned machine and compares the Stats digests with pinnedDigests.
func TestPinnedConfigDigests(t *testing.T) {
	var starved uint64
	for name, cfg := range pinnedConfigs() {
		sim := pipeline.MustNew(cfg)
		for _, w := range workloads.All() {
			key := name + "/" + w.Name
			st, err := sim.Run(w.Build(), core.MustDynamicRVP(core.DefaultCounterConfig()), pinnedInsts)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got, want := statsDigest(st), pinnedDigests[key]; got != want {
				t.Errorf("%q: %q, // digest changed from %q; stats %s", key, got, want, st)
			}
			if cfg.PredictPorts == 1 {
				starved += st.PortStarved
			}
		}
	}
	if starved == 0 {
		t.Error("one predict port starved no prediction: the port book is not exercised")
	}
}
