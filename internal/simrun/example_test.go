package simrun_test

import (
	"context"
	"fmt"

	"repro/internal/simrun"
)

// ExampleNew shows the canonical way to describe and execute one
// simulation: name a benchmark profile, stack options, run.
func ExampleNew() {
	s, err := simrun.New("gcc",
		simrun.Model("interval"),
		simrun.Cores(2),
		simrun.Insts(5_000),
		simrun.Warmup(10_000),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := s.Run(context.Background())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("model=%s cores=%d completed=%v\n",
		res.Model, len(res.Cores), res.TotalRetired == 10_000)
	// Output: model=interval cores=2 completed=true
}
