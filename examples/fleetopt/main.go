// Fleetopt: OCOLOS as the actuator of a fleet-wide profiling system.
//
// §V of the paper notes that data centers already run continuous fleet
// profilers (Google-Wide Profiling); OCOLOS slots in behind them. This
// example manages four services under a fleet.Manager: the TopDown scan
// (the DMon-style first stage) selects the front-end-bound ones, the
// worker pool drives each selected service through the optimization
// lifecycle concurrently — with replacement pauses staggered by the
// global semaphore — and services below the regression bar are reverted
// to C0. The memory-bound cache is correctly refused by the gate.
//
// Run with: go run ./examples/fleetopt
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/fleet"
	"repro/internal/telemetry"
	"repro/internal/workloads/docdb"
	"repro/internal/workloads/kvcache"
	"repro/internal/workloads/sqldb"
)

func main() {
	db, err := sqldb.Build(sqldb.Full())
	if err != nil {
		log.Fatal(err)
	}
	doc, err := docdb.Build(docdb.Full())
	if err != nil {
		log.Fatal(err)
	}
	kv, err := kvcache.Build(kvcache.Full())
	if err != nil {
		log.Fatal(err)
	}

	metrics := telemetry.NewRegistry()
	m, err := fleet.NewManager(fleet.Config{
		Workers:   2,
		MaxPauses: 1,
		Timing:    fleet.TimingConfig{Window: 0.002},
		Robustness: fleet.RobustnessConfig{
			MaxRounds:   1,
			RevertBelow: 1.02,
		},
		Metrics: metrics,
	})
	if err != nil {
		log.Fatal(err)
	}
	plans := []fleet.ServicePlan{
		{Name: "sqldb/read_only", Workload: db, Input: "read_only", Threads: 4},
		{Name: "docdb/read_update", Workload: doc, Input: "read_update", Threads: 4},
		{Name: "docdb/scan95", Workload: doc, Input: "scan95_insert5", Threads: 4},
		{Name: "kvcache/get90", Workload: kv, Input: "set10_get90", Threads: 4},
	}
	for _, plan := range plans {
		svc, err := m.AddService(plan)
		if err != nil {
			log.Fatal(err)
		}
		svc.Proc.RunFor(0.002) // services have been up for a while
	}

	fmt.Println("fleet scan (TopDown first stage):")
	scan := m.Scan(fleet.ScanOptions{})
	for _, r := range scan {
		verdict := "skip"
		if r.Optimize {
			verdict = "OPTIMIZE"
		}
		fmt.Printf("  %-20s FE %5.1f%%  retiring %5.1f%%  -> %s\n",
			r.Service.Name, r.TopDown.FrontEnd*100, r.TopDown.Retiring*100, verdict)
	}

	m.Optimize(scan, fleet.WaveOptions{})
	fmt.Println("\nafter one optimization wave (services below 1.02x are reverted):")
	m.Report().Write(os.Stdout)

	fmt.Println("\nfleet metrics:")
	metrics.WriteReport(os.Stdout)
}
