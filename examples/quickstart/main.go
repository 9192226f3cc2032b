// Quickstart: simulate one benchmark with interval simulation and compare
// it against the detailed cycle-level baseline on the same machine.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"repro/internal/simrun"
)

func main() {
	// Run the same instruction stream under both core models. Scenarios
	// are deterministic: both models see identical instructions and
	// drive identical branch-predictor and memory-hierarchy simulators;
	// only the core timing model differs. The benchmark is gcc-like
	// (branchy with a large code footprint) on the paper's Table 1
	// machine.
	for _, model := range []string{"detailed", "interval"} {
		s := simrun.MustNew("gcc",
			simrun.Model(model),
			simrun.Insts(100_000),
			simrun.Warmup(600_000),
		)
		res, err := s.Run(context.Background())
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-9s IPC=%.3f cycles=%-8d wall=%-12v %.2f MIPS\n",
			res.Model, res.Cores[0].IPC, res.Cycles, res.Wall, res.MIPS())
	}

	fmt.Println()
	fmt.Println("Interval simulation replaces the cycle-accurate core model with a")
	fmt.Println("mechanistic analytical model: expect a close IPC at a much higher")
	fmt.Println("simulation speed.")
}
