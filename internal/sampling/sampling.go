// Package sampling implements periodic sampled simulation on top of the
// core timing models — the SMARTS-style methodology the paper's related
// work discusses and calls *orthogonal* to interval simulation: sampling
// reduces how many instructions are timed, interval simulation reduces the
// cost of timing each one. Combining them multiplies the savings, and this
// package demonstrates that combination.
//
// The instruction stream is divided into periods; in each period a
// measurement unit of U instructions is timed (by any core model) after
// W instructions of functional warming, and the remaining instructions are
// fast-forwarded through the caches and branch predictor only (functional
// warming keeps the large structures coherent with the full execution, the
// standard fix for cold-start bias).
package sampling

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/multicore"
	"repro/internal/trace"
)

// Config sizes the sampling regime.
type Config struct {
	// Unit is the measurement unit length in instructions.
	Unit int
	// Period is the distance between unit starts; Period-Unit
	// instructions are fast-forwarded (with functional warming) between
	// measurements.
	Period int
	// InitialWarmup fast-forwards this many instructions before the
	// first measurement unit (large-structure warmup, as in SMARTS).
	InitialWarmup int
	// Model selects the timing model for measurement units.
	Model multicore.Model
	// Machine is the simulated hardware (single core).
	Machine config.Machine
}

// Result summarizes a sampled run.
type Result struct {
	// SampledIPC is the IPC estimate from the measurement units.
	SampledIPC float64
	// Units is the number of measurement units taken.
	Units int
	// TimedInsts and TotalInsts give the sampling ratio.
	TimedInsts uint64
	TotalInsts uint64
}

// Ratio returns the fraction of instructions that were timed.
func (r Result) Ratio() float64 {
	if r.TotalInsts == 0 {
		return 0
	}
	return float64(r.TimedInsts) / float64(r.TotalInsts)
}

// Run performs sampled simulation of up to total instructions from src.
// The stream is consumed once; measurement units are timed with a fresh
// core over persistent (functionally warmed) structures.
func Run(cfg Config, src trace.Stream, total int) (Result, error) {
	if cfg.Unit <= 0 || cfg.Period <= 0 || cfg.Period < cfg.Unit {
		return Result{}, fmt.Errorf("sampling: invalid regime unit=%d period=%d", cfg.Unit, cfg.Period)
	}
	if cfg.Machine.Cores != 1 {
		return Result{}, fmt.Errorf("sampling: single-core only (got %d cores)", cfg.Machine.Cores)
	}

	mem := memhier.New(1, cfg.Machine.Mem, memhier.Perfect{})
	bp := branch.NewUnit(cfg.Machine.Branch)

	var res Result
	var cyclesSum, instsSum uint64
	for k := 0; k < cfg.InitialWarmup; k++ {
		in, ok := src.Next()
		if !ok {
			return res, nil
		}
		warmOne(mem, bp, &in)
	}
	consumed := 0
	for consumed < total {
		// Fast-forward with functional warming until the next unit.
		ff := cfg.Period - cfg.Unit
		if ff > total-consumed {
			ff = total - consumed
		}
		// A contiguous regime (Period == Unit) has no gaps to sample
		// around: time the whole remainder on one core. Restarting the
		// pipeline at every unit boundary would charge a fill and a
		// drain per unit — a harness artifact, not machine behaviour.
		unitLen := cfg.Unit
		if ff == 0 {
			unitLen = total - consumed
		}
		for k := 0; k < ff; k++ {
			in, ok := src.Next()
			if !ok {
				return finish(res, cyclesSum, instsSum), nil
			}
			warmOne(mem, bp, &in)
			consumed++
		}
		if consumed >= total {
			break
		}

		// Measurement unit: time Unit instructions on a fresh core over
		// the warmed structures. Clear bus/DRAM occupancy accumulated by
		// the (untimed) fast-forward accesses first.
		mem.ResetStats()
		bp.ResetStats()
		unit := unitLen
		if unit > total-consumed {
			unit = total - consumed
		}
		cycles, retired := timeInterval(multicore.RunConfig{Machine: cfg.Machine, Model: cfg.Model}, trace.NewLimit(src, unit), bp, mem)
		res.Units += (int(retired) + cfg.Unit - 1) / cfg.Unit
		cyclesSum += uint64(cycles)
		instsSum += retired
		consumed += int(retired)
		if retired < uint64(unit) {
			break // stream ended inside the unit
		}
	}
	res.TotalInsts = uint64(consumed)
	return finish(res, cyclesSum, instsSum), nil
}

func finish(res Result, cycles, insts uint64) Result {
	res.TimedInsts = insts
	if res.TotalInsts < insts {
		res.TotalInsts = insts
	}
	if cycles > 0 {
		res.SampledIPC = float64(insts) / float64(cycles)
	}
	return res
}

// warmOne feeds one instruction through the caches, TLBs and predictor.
func warmOne(mem *memhier.Hierarchy, bp *branch.Unit, in *isa.Inst) {
	if in.Class.IsSync() {
		return
	}
	mem.Inst(0, in.PC, 0)
	if in.Class.IsBranch() {
		bp.Predict(in)
	}
	if in.Class.IsMem() {
		mem.Data(0, in.Addr, in.Class == isa.Store, 0)
	}
}
