// Package multicore runs N simulated cores — detailed, interval or one-IPC
// — against a shared memory hierarchy and a synchronization coordinator,
// and reports per-core and machine-level results. It is the outer loop of
// Figure 3: global time advances cycle by cycle; each live core is stepped
// once per cycle (interval cores internally skip cycles their miss-event
// penalties have already covered).
package multicore

import (
	"fmt"
	"time"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// RunConfig describes one simulation run.
type RunConfig struct {
	// Machine is the simulated hardware; Machine.Cores must equal the
	// number of streams passed to Run.
	Machine config.Machine
	// Model selects the core timing model.
	Model Model
	// Interrupt, when non-nil, aborts the run early once the channel is
	// closed (or receives). The driver polls it periodically; an
	// interrupted run returns with Result.Interrupted set and whatever
	// progress was made. Batch runners use this for cancellation and
	// per-scenario timeouts.
	Interrupt <-chan struct{}
	// Perfect selects always-hit structures (Figure 4 experiments).
	Perfect memhier.Perfect
	// MaxCycles aborts runaway runs (0 = a generous default).
	MaxCycles int64
	// KeepCores retains the core model objects in Result.Sim so callers
	// can read model-specific state (e.g. the interval model's CPI
	// stacks) after the run.
	KeepCores bool
	// WarmupInsts functionally warms caches, TLBs and branch predictors
	// with this many instructions per core before timed simulation, then
	// clears statistics (the paper's 100M-instruction SimPoints arrive
	// warm; short synthetic runs must be warmed explicitly).
	WarmupInsts int
	// Warmup optionally supplies separate warmup streams (e.g. twin
	// generators replaying the measured stream); when nil, warmup
	// consumes the head of the main streams.
	Warmup []trace.Stream
	// Ablation selects interval-model ablation variants (zero value =
	// full model); ignored by the other models.
	Ablation core.Options
	// Trace, when non-nil, receives warmup and measure spans for the
	// run. Spans are host wall-clock observability only: they never
	// influence simulated state, so results are identical with tracing
	// on or off. Nil (the default) costs nothing on the stepping path.
	Trace *obs.Tracer
	// Heartbeat, when non-nil, receives throttled live-progress reports
	// (instructions retired, MIPS, ETA). It is polled at the same
	// periodic points as Interrupt, so the per-cycle path stays free of
	// observability work.
	Heartbeat *obs.Heartbeat
}

// CoreResult is the outcome for one core/thread.
type CoreResult struct {
	Retired uint64
	// Finish is the core-local simulated time at which the thread
	// completed.
	Finish int64
	IPC    float64
}

// Result is the outcome of one multi-core run.
type Result struct {
	Model Model
	// Cycles is the machine-level execution time: the time the last
	// thread finished.
	Cycles int64
	Cores  []CoreResult
	// TotalRetired sums retired instructions across cores.
	TotalRetired uint64
	// Wall is the host wall-clock duration of the simulation, used for
	// the simulation-speed comparisons of Figures 9 and 10.
	Wall time.Duration
	// TimedOut is set when MaxCycles was reached before completion.
	TimedOut bool
	// Interrupted is set when RunConfig.Interrupt fired before completion.
	Interrupted bool
	// Sim holds the core model objects when RunConfig.KeepCores is set.
	Sim []sim.Core
	// Mem is the memory hierarchy when RunConfig.KeepCores is set (for
	// post-run statistics reporting).
	Mem *memhier.Hierarchy
}

// MIPS returns simulated instructions per host second in millions.
func (r Result) MIPS() float64 {
	s := r.Wall.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.TotalRetired) / s / 1e6
}

// Run simulates the streams (one per core) to completion under cfg and
// returns the result. The number of streams must equal Machine.Cores.
func Run(cfg RunConfig, streams []trace.Stream) Result {
	if len(streams) != cfg.Machine.Cores {
		panic(fmt.Sprintf("multicore: %d streams for %d cores", len(streams), cfg.Machine.Cores))
	}
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 2_000_000_000
	}

	mem := memhier.New(cfg.Machine.Cores, cfg.Machine.Mem, cfg.Perfect)
	coord := NewCoordinator(cfg.Machine.Cores)

	bps := make([]*branch.Unit, cfg.Machine.Cores)
	for i := range bps {
		bps[i] = branch.NewUnit(cfg.Machine.Branch)
	}
	if cfg.WarmupInsts > 0 {
		warm := cfg.Warmup
		if warm == nil {
			warm = streams
		}
		wsp := cfg.Trace.Start("warmup").Arg("insts_per_core", int64(cfg.WarmupInsts))
		Warmup(mem, bps, warm, cfg.WarmupInsts)
		wsp.End()
	}

	cores := buildCores(cfg, bps, mem, coord, streams)

	res := Result{Model: cfg.Model, Cores: make([]CoreResult, len(cores))}

	// The TimeSkipper capability is asserted once per core here, not once
	// per core per cycle in the skip loop below.
	skippers := make([]sim.TimeSkipper, len(cores))
	allSkip := true
	for i, c := range cores {
		if ts, ok := c.(sim.TimeSkipper); ok {
			skippers[i] = ts
		} else {
			allSkip = false
		}
	}
	// live holds the indices of cores that have not finished, in ascending
	// order; finished cores drop out instead of being re-checked every
	// cycle of a long run. The rotation below still uses the full core
	// count so the visit order of the surviving cores is unchanged.
	live := make([]int, len(cores))
	for i := range live {
		live[i] = i
	}

	// poll folds the observability hooks into the existing periodic
	// interrupt check, so the per-cycle path gains no new branches when
	// neither is set.
	poll := cfg.Interrupt != nil || cfg.Heartbeat != nil
	msp := cfg.Trace.Start("measure")
	start := time.Now()
	now := int64(0)
	n := len(cores)
	if n == 1 && skippers[0] != nil {
		// Single-core fast loop: no rotation, no live-list bookkeeping —
		// the dominant case for SPEC runs and sweeps. Semantically
		// identical to the general loop below with one core.
		c, ts := cores[0], skippers[0]
		if c.Done() {
			coord.NoteDone(0)
		} else {
			for iter := uint(0); ; iter++ {
				if poll && iter&1023 == 0 {
					if cfg.Interrupt != nil {
						select {
						case <-cfg.Interrupt:
							res.Interrupted = true
						default:
						}
						if res.Interrupted {
							break
						}
					}
					cfg.Heartbeat.Tick(c.Retired())
				}
				c.Step(now)
				if c.Done() {
					coord.NoteDone(0)
					break
				}
				next := ts.NextActive(now + 1)
				if next < now+1 {
					next = now + 1
				}
				now = next
				if now >= maxCycles {
					res.TimedOut = true
					break
				}
			}
		}
		msp.Arg("cycles", now).End()
		res.Wall = time.Since(start)
		if cfg.KeepCores {
			res.Sim = cores
			res.Mem = mem
		}
		finishResult(&res, cores, now)
		cfg.Heartbeat.Final(res.TotalRetired)
		return res
	}
	for iter := uint(0); ; iter++ {
		// Poll the interrupt channel periodically, not every iteration:
		// a channel select on the per-cycle path would be measurable.
		if poll && iter&1023 == 0 {
			if cfg.Interrupt != nil {
				select {
				case <-cfg.Interrupt:
					res.Interrupted = true
				default:
				}
				if res.Interrupted {
					break
				}
			}
			if cfg.Heartbeat != nil {
				var sum uint64
				for _, c := range cores {
					sum += c.Retired()
				}
				cfg.Heartbeat.Tick(sum)
			}
		}
		// Rotate the stepping order each cycle: same-cycle races for the
		// shared bus and L2 are then arbitrated round-robin instead of
		// systematically favoring low-numbered cores. The rotation is
		// over core indices (not live-list positions), so removing
		// finished cores does not perturb the order of the rest.
		first := 0
		if n > 1 {
			first = int(now % int64(n))
		}
		start2 := 0
		for start2 < len(live) && live[start2] < first {
			start2++
		}
		removed := false
		for k := 0; k < len(live); k++ {
			pos := start2 + k
			if pos >= len(live) {
				pos -= len(live)
			}
			i := live[pos]
			c := cores[i]
			// A core only finishes inside Step, so the pre-check fires
			// just for cores that were already done when handed to the
			// driver (it mirrors the pre-removal per-cycle scan).
			if c.Done() {
				coord.NoteDone(i)
				live[pos] = -1
				removed = true
				continue
			}
			c.Step(now)
			if c.Done() {
				coord.NoteDone(i)
				live[pos] = -1
				removed = true
			}
		}
		if removed {
			w := 0
			for _, i := range live {
				if i >= 0 {
					live[w] = i
					w++
				}
			}
			live = live[:w]
		}
		if len(live) == 0 {
			break
		}
		// Event-driven skip: if every live core is ahead of global time
		// (miss-event penalties), jump straight to the earliest next
		// activity — no core would be simulated in between.
		next := now + 1
		if allSkip {
			var minNext int64 = 1<<62 - 1
			for _, i := range live {
				na := skippers[i].NextActive(now + 1)
				if na < minNext {
					minNext = na
				}
			}
			if minNext > next {
				next = minNext
			}
		}
		now = next
		if now >= maxCycles {
			res.TimedOut = true
			break
		}
	}
	msp.Arg("cycles", now).End()
	res.Wall = time.Since(start)
	if cfg.KeepCores {
		res.Sim = cores
		res.Mem = mem
	}
	finishResult(&res, cores, now)
	cfg.Heartbeat.Final(res.TotalRetired)
	return res
}

// buildCores constructs the per-core model instances for cfg.
func buildCores(cfg RunConfig, bps []*branch.Unit, mem *memhier.Hierarchy, coord sim.Syncer, streams []trace.Stream) []sim.Core {
	cores := make([]sim.Core, cfg.Machine.Cores)
	for i := range cores {
		cores[i] = NewCore(cfg.Model, i, cfg.Machine.Core, cfg.Ablation, bps[i], mem, streams[i], coord)
	}
	return cores
}

// finishResult fills the per-core results and machine-level totals after
// the stepping loop.
func finishResult(res *Result, cores []sim.Core, now int64) {
	for i, c := range cores {
		fin := c.FinishTime()
		if !c.Done() {
			fin = now
		}
		res.Cores[i] = CoreResult{
			Retired: c.Retired(),
			Finish:  fin,
			IPC:     metrics.IPC(c.Retired(), fin),
		}
		res.TotalRetired += c.Retired()
		if fin > res.Cycles {
			res.Cycles = fin
		}
	}
}

// Warmup replays n instructions per core through the caches, TLBs and
// branch predictors without timing, then clears all statistics. This is
// standard functional warming: the timed portion then measures steady-state
// behaviour instead of cold-start misses. Chunks are clamped to n, so a
// stream that the timed run then continues from is never over-read. It
// returns the fewest instructions any stream supplied (n unless a stream
// ended early).
func Warmup(mem *memhier.Hierarchy, bps []*branch.Unit, streams []trace.Stream, n int) int {
	n = max(n, 0)
	buf := make([]isa.Inst, min(n, 4096))
	consumed := n
	for i, s := range streams {
		if i >= len(bps) {
			break
		}
		left := n
		for left > 0 {
			k := s.NextBatch(buf[:min(left, len(buf))])
			if k == 0 {
				break
			}
			left -= k
			for j := range buf[:k] {
				in := &buf[j]
				if in.Class.IsSync() {
					continue
				}
				mem.Inst(i, in.PC, 0)
				if in.Class.IsBranch() {
					bps[i].Predict(in)
				}
				if in.Class.IsMem() {
					mem.Data(i, in.Addr, in.Class == isa.Store, 0)
				}
			}
		}
		consumed = min(consumed, n-left)
	}
	mem.ResetStats()
	for _, bp := range bps {
		bp.ResetStats()
	}
	return consumed
}
