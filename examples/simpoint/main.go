// SimPoint demo: phase-classify a stream whose behaviour alternates
// between two programs, then predict whole-run IPC from one timed
// representative per phase. Phase sampling is the third speedup family of
// the paper's related work (Sherwood et al.); like SMARTS sampling it is
// orthogonal to interval simulation and the two compose.
//
//	go run ./examples/simpoint
package main

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/multicore"
	"repro/internal/sampling"
	"repro/internal/simrun"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	// Build a phased stream: alternating gcc-like (branchy, cache-
	// friendly) and swim-like (streaming FP) segments.
	const segLen = 4000
	const segs = 20
	ga := workload.New(workload.SPECByName("gcc"), 0, 1, 42)
	gs := workload.New(workload.SPECByName("swim"), 0, 1, 43)
	var insts = trace.Record(ga, segLen) // initialization segment
	for s := 1; s < segs; s++ {
		g := trace.Stream(ga)
		if s%2 == 1 {
			g = gs
		}
		insts = append(insts, trace.Record(g, segLen)...)
	}

	// 1. Classify phases from code signatures alone (no timing).
	sp, err := sampling.Analyze(insts, sampling.SimPointConfig{
		IntervalLen: segLen, K: 2, Seed: 9,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("phases: %d clusters over %d intervals (k-means took %d iterations)\n",
		sp.K, sp.Intervals(), sp.Iterations)
	fmt.Printf("assignments: %v\n", sp.Assignments)
	for c := 0; c < sp.K; c++ {
		fmt.Printf("  phase %d: weight %.2f, simulation point = interval %d\n",
			c, sp.Weights[c], sp.Representatives[c])
	}

	// 2. Time only the representatives and compare with the full run.
	m := config.Default(1)
	est, err := sampling.EstimateIPC(insts, sp, multicore.RunConfig{Machine: m, Model: multicore.Interval})
	if err != nil {
		panic(err)
	}
	full, err := simrun.MustNew("",
		simrun.Label("phased gcc~swim"),
		simrun.Streams([]trace.Stream{trace.NewSliceStream(insts)}, nil),
	).Run(context.Background())
	if err != nil {
		panic(err)
	}

	fmt.Printf("\nfull run IPC        %.3f (%d intervals timed)\n", full.Cores[0].IPC, sp.Intervals())
	fmt.Printf("simpoint estimate   %.3f (%d intervals timed)\n", est, sp.K)
	fmt.Println()
	fmt.Println("Two timed intervals stand in for the whole run; combined with the")
	fmt.Println("interval core model the two speedups multiply.")
}
