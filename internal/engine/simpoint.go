package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/multicore"
	"repro/internal/sampling"
	"repro/internal/simrun"
	"repro/internal/workload"
)

const (
	// simpointMaxAnalyze caps how much of the real stream is phase-
	// classified; scenarios beyond it are extrapolated from this prefix,
	// which is what bounds the tier's cost. Classification streams the
	// signatures one interval at a time (v3) — nothing is recorded.
	simpointMaxAnalyze = 1_000_000
	// simpointK is the maximum number of phases (clusters).
	simpointK = 8
	// simpointMinInterval / simpointMaxInterval clamp the interval
	// length the analyzed span is sliced into.
	simpointMinInterval = 2_000
	simpointMaxInterval = 100_000
	// simpointWarm is the per-representative functional warmup: the
	// stream format's O(1) skip-ahead jumps straight to this many
	// instructions before each representative, replacing the v2 replay
	// of the entire recorded prefix up to the representative.
	simpointWarm = 50_000
)

func simpointEngine() simrun.EngineDef {
	return simrun.EngineDef{
		Name: "simpoint",
		Tier: func(*simrun.Scenario) simrun.Tier { return simrun.TierSampled },
		Cost: simpointCost,
		Supports: func(s *simrun.Scenario) error {
			if err := singleProgram(s); err != nil {
				return err
			}
			switch s.ModelName() {
			case "interval", "detailed":
				return nil
			}
			return errors.New("interval and detailed core models only (representative intervals are timed on a bare single core)")
		},
		Run: simpointRun,
	}
}

// simpointCost: the analyzed span is streamed once for classification,
// then each of up to K representatives costs a bounded warmup plus its
// interval — not a replay of the stream in front of it.
func simpointCost(s *simrun.Scenario) float64 {
	rec := min(s.WarmupBudget()+s.InstBudget(), simpointMaxAnalyze)
	return float64(rec) + float64(simpointK*(simpointWarm+simpointInterval(rec)))
}

// simpointInterval picks the clustering interval length for an analyzed
// span.
func simpointInterval(analyzed int) int {
	il := analyzed / 16
	if il > simpointMaxInterval {
		il = simpointMaxInterval
	}
	if il < simpointMinInterval {
		il = simpointMinInterval
	}
	if il > analyzed {
		il = analyzed
	}
	return il
}

// simpointRun is SimPoint phase sampling end to end: stream a bounded
// prefix of the real stream through interval classification, then time
// one representative per phase and combine the per-phase CPIs by
// cluster weight. Each representative is reached by skipping a fresh
// stream directly to a bounded warmup window in front of it (O(1) with
// stream format v3), so neither classification nor timing ever
// materializes the stream.
func simpointRun(ctx context.Context, s *simrun.Scenario) (simrun.Result, error) {
	start := time.Now()
	budget := s.InstBudget()
	rec := min(s.WarmupBudget()+budget, simpointMaxAnalyze)
	openStream := func() sampling.SkipStream {
		return workload.New(s.Profile(), 0, 1, s.SeedValue())
	}

	sp, err := sampling.AnalyzeStream(openStream(), rec, sampling.SimPointConfig{
		IntervalLen: simpointInterval(rec),
		K:           simpointK,
		Seed:        s.SeedValue(),
	})
	if err != nil {
		return simrun.Result{}, fmt.Errorf("engine: simpoint: %w", err)
	}

	cfg, err := s.RunConfig()
	if err != nil {
		return simrun.Result{}, err
	}
	ipc, err := sampling.EstimateIPCSkip(openStream, sp, simpointWarm, cfg)
	if err != nil {
		return simrun.Result{}, fmt.Errorf("engine: simpoint: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return simrun.Result{Result: multicore.Result{Interrupted: true}}, err
	}

	cycles := int64(float64(budget)/ipc + 0.5)
	return simrun.Result{Result: multicore.Result{
		Model:        cfg.Model,
		Cycles:       cycles,
		Cores:        []multicore.CoreResult{{Retired: uint64(budget), Finish: cycles, IPC: ipc}},
		TotalRetired: uint64(budget),
		Wall:         time.Since(start),
	}}, nil
}
