// Ridehailing compares every registered assignment method — the paper's five
// (Greedy, FTA, DTA, DTA+TP, DATA-WA) and SSP — on a Yueche-like evening-peak scenario — the
// motivating workload of the paper's introduction: passenger requests are
// tasks, drivers are workers, and demand surges move across the city.
//
// Run with: go run ./examples/ridehailing
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	cfg := datawa.YuecheScenario().Scaled(0.1)
	sc := datawa.GenerateScenario(cfg)
	fmt.Printf("Yueche-like scenario: %d drivers, %d requests over %.0f minutes\n\n",
		len(sc.Workers), len(sc.Tasks), cfg.Duration/60)

	fw := datawa.New(datawa.Config{
		Region:   cfg.Region,
		GridRows: cfg.GridRows, GridCols: cfg.GridCols,
		Epochs: 10, TVFEpochs: 20, Step: 2,
	})
	fmt.Println("training demand model on the preceding hour of requests ...")
	if err := fw.TrainDemand(sc.History); err != nil {
		log.Fatal(err)
	}
	fmt.Println("training task value function from exact-search traces ...")
	if err := fw.TrainValue(sc.Workers, sc.Tasks, 6); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	fmt.Printf("%-10s %10s %10s %14s\n", "method", "assigned", "expired", "cpu/instant")
	for _, m := range datawa.Methods() {
		res, err := fw.Run(m, sc.Workers, sc.Tasks, sc.T0, sc.T1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %10d %10d %14v\n", m, res.Assigned, res.Expired, res.AvgPlanTime)
	}
	fmt.Println("\nexpected shape (paper Figs. 7-11): DTA+TP and DATA-WA assign the most;")
	fmt.Println("DATA-WA plans markedly faster than DTA+TP; Greedy is cheapest but worst.")
}
