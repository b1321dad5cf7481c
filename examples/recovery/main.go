// Recovery compares the paper's three value-misprediction recovery
// schemes — refetch, reissue, and selective reissue (Section 4.3 /
// Figure 4) — on a workload where predictions are plentiful but not
// perfect, showing the queue-pressure trade-off: refetch has the highest
// mispredict cost but imposes no cost on correct predictions, while
// reissue holds every younger instruction in the queue.
package main

import (
	"context"
	"fmt"
	"log"

	"rvpsim"
)

func main() {
	const budget = 1_000_000
	workloads := []string{"m88ksim", "su2cor", "turb3d"}
	schemes := []struct {
		name string
		rec  rvpsim.Recovery
	}{
		{"refetch", rvpsim.RecoverRefetch},
		{"reissue", rvpsim.RecoverReissue},
		{"selective", rvpsim.RecoverSelective},
	}

	fmt.Printf("%-10s %12s %12s %12s %12s\n", "workload", "no_predict", "refetch", "reissue", "selective")
	for _, wl := range workloads {
		prog, err := rvpsim.Workload(wl)
		if err != nil {
			log.Fatal(err)
		}
		cfg := rvpsim.BaselineConfig()
		base, err := rvpsim.Run(context.Background(), prog, cfg, rvpsim.MustPredictor("none"), rvpsim.RunOptions{MaxInsts: budget})
		if err != nil {
			log.Fatal(err)
		}
		row := fmt.Sprintf("%-10s %12.3f", wl, base.IPC())
		for _, s := range schemes {
			cfg := rvpsim.BaselineConfig()
			cfg.Recovery = s.rec
			st, err := rvpsim.Run(context.Background(), prog, cfg, rvpsim.MustPredictor("rvp"), rvpsim.RunOptions{MaxInsts: budget})
			if err != nil {
				log.Fatal(err)
			}
			row += fmt.Sprintf(" %12.3f", st.IPC())
		}
		fmt.Println(row)
	}
	fmt.Println("\nIPC under dynamic RVP per recovery scheme (higher is better).")
	fmt.Println("Refetch pays a full pipeline flush per mispredicted use; reissue and")
	fmt.Println("selective pay one cycle but hold instructions in the issue queue.")
}
