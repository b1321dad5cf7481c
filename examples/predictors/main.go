// Predictors compares storageless RVP against the whole buffer-based
// hierarchy — LVP, stride, and a finite-context predictor — on several
// workloads, printing each scheme's speedup next to its hardware storage
// cost. This is the cost/benefit argument at the heart of the paper: RVP
// needs 3 Kbit of counters; the buffer-based schemes need 100-700 Kbit.
package main

import (
	"context"
	"fmt"
	"log"

	"rvpsim"
)

func main() {
	const budget = 1_000_000
	workloadNames := []string{"m88ksim", "hydro2d", "turb3d", "li"}

	preds := []struct{ label, name string }{
		{"drvp (storageless)", "rvp"},
		{"G&M register pred.", "gabbay"},
		{"lvp", "lvp_all"},
		{"stride", "stride"},
		{"context (order 2)", "context"},
	}

	fmt.Printf("%-20s %10s", "predictor", "storage")
	for _, w := range workloadNames {
		fmt.Printf(" %9s", w)
	}
	fmt.Println()

	base := map[string]int64{}
	for _, w := range workloadNames {
		prog, err := rvpsim.Workload(w)
		if err != nil {
			log.Fatal(err)
		}
		st, err := rvpsim.Run(context.Background(), prog, rvpsim.BaselineConfig(), rvpsim.MustPredictor("none"), rvpsim.RunOptions{MaxInsts: budget})
		if err != nil {
			log.Fatal(err)
		}
		base[w] = st.Cycles
	}

	for _, p := range preds {
		bits := rvpsim.MustPredictor(p.name).StorageBits()
		fmt.Printf("%-20s %9.1fKb", p.label, float64(bits)/1024)
		for _, w := range workloadNames {
			prog, err := rvpsim.Workload(w)
			if err != nil {
				log.Fatal(err)
			}
			st, err := rvpsim.Run(context.Background(), prog, rvpsim.BaselineConfig(), rvpsim.MustPredictor(p.name), rvpsim.RunOptions{MaxInsts: budget})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %9.3f", float64(base[w])/float64(st.Cycles))
		}
		fmt.Println()
	}
	fmt.Println("\nSpeedup over no prediction; storage = value-prediction state only.")
	fmt.Println("RVP's counters are ~2% of LVP's table and ~0.4% of the context predictor's.")
}
