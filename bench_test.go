// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus micro-benchmarks on the simulator hot paths.
//
// Each figure benchmark runs the corresponding experiment at a reduced
// size and reports simulated instructions per host second for both core
// models, so `go test -bench .` regenerates the paper's entire evaluation
// (use cmd/experiments for full-size tables).
package main

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/multicore"
	"repro/internal/ooo"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchOpts sizes figure benchmarks small enough to iterate.
func benchOpts() experiments.Opts {
	o := experiments.Quick()
	o.Insts = 10_000
	o.Warmup = 100_000
	o.WorkScale = 0.1
	return o
}

// Figure benchmarks: each b.N iteration regenerates the artifact once.

func BenchmarkFig4a(b *testing.B) { benchFig(b, func(o experiments.Opts) { o.Fig4("4a") }) }
func BenchmarkFig4b(b *testing.B) { benchFig(b, func(o experiments.Opts) { o.Fig4("4b") }) }
func BenchmarkFig4c(b *testing.B) { benchFig(b, func(o experiments.Opts) { o.Fig4("4c") }) }
func BenchmarkFig4d(b *testing.B) { benchFig(b, func(o experiments.Opts) { o.Fig4("4d") }) }
func BenchmarkFig5(b *testing.B)  { benchFig(b, func(o experiments.Opts) { o.Fig5() }) }
func BenchmarkFig6(b *testing.B)  { benchFig(b, func(o experiments.Opts) { o.Fig6() }) }
func BenchmarkFig7(b *testing.B)  { benchFig(b, func(o experiments.Opts) { o.Fig7() }) }
func BenchmarkFig8(b *testing.B)  { benchFig(b, func(o experiments.Opts) { o.Fig8() }) }
func BenchmarkFig9(b *testing.B)  { benchFig(b, func(o experiments.Opts) { o.Fig9() }) }
func BenchmarkFig10(b *testing.B) { benchFig(b, func(o experiments.Opts) { o.Fig10() }) }

// BenchmarkAblationOneIPC regenerates the one-IPC ablation table.
func BenchmarkAblationOneIPC(b *testing.B) {
	benchFig(b, func(o experiments.Opts) { o.Ablation() })
}

func benchFig(b *testing.B, f func(experiments.Opts)) {
	o := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(o)
	}
}

// Simulator-throughput benchmarks: simulated instructions per host second
// for each core model on a representative workload. The ratio between the
// detailed and interval numbers is the paper's headline speedup.

func benchModel(b *testing.B, model multicore.Model, cores int) {
	p := workload.SPECByName("gcc")
	b.ReportAllocs()
	var insts int64
	for i := 0; i < b.N; i++ {
		streams := make([]trace.Stream, cores)
		for c := 0; c < cores; c++ {
			streams[c] = trace.NewLimit(workload.New(p, c, cores, 42), 20_000)
		}
		res := multicore.Run(multicore.RunConfig{
			Machine: config.Default(cores),
			Model:   model,
		}, streams)
		insts += int64(res.TotalRetired)
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "simMIPS")
}

func BenchmarkDetailedSingleCore(b *testing.B) { benchModel(b, multicore.Detailed, 1) }
func BenchmarkIntervalSingleCore(b *testing.B) { benchModel(b, multicore.Interval, 1) }
func BenchmarkOneIPCSingleCore(b *testing.B)   { benchModel(b, multicore.OneIPC, 1) }
func BenchmarkDetailedQuadCore(b *testing.B)   { benchModel(b, multicore.Detailed, 4) }
func BenchmarkIntervalQuadCore(b *testing.B)   { benchModel(b, multicore.Interval, 4) }

// Micro-benchmarks on the hot paths.

func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(config.Default(1).Mem.L1D)
	addrs := make([]uint64, 1024)
	for i := range addrs {
		addrs[i] = uint64(i) * 64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i&1023]
		if !c.Access(a, false) {
			c.Fill(a, false)
		}
	}
}

func BenchmarkBranchPredict(b *testing.B) {
	u := branch.NewUnit(config.Default(1).Branch)
	in := isa.Inst{Class: isa.Branch, PC: 0x400100, Taken: true, Target: 0x400000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Taken = i&7 != 0
		u.Predict(&in)
	}
}

func BenchmarkMemHierData(b *testing.B) {
	h := memhier.New(1, config.Default(1).Mem, memhier.Perfect{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Data(0, uint64(i%4096)*64, false, int64(i))
	}
}

// BenchmarkIntervalSteadyState measures the steady-state per-instruction
// cost of the interval core with real miss-event simulators, after the
// window and the hand-off ring are primed. It must report 0 allocs/op: the
// core's steady state is allocation-free (run with -benchmem).
func BenchmarkIntervalSteadyState(b *testing.B) {
	m := config.Default(1)
	p := workload.SPECByName("gcc")
	mem := memhier.New(1, m.Mem, memhier.Perfect{})
	bp := branch.NewUnit(m.Branch)
	c := core.New(0, m.Core, bp, mem, workload.New(p, 0, 1, 42), sim.NullSyncer{})
	var now int64
	for c.Retired() < 10_000 {
		c.Step(now)
		now = c.NextActive(now + 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := c.Retired()
	for c.Retired()-start < uint64(b.N) {
		c.Step(now)
		now = c.NextActive(now + 1)
	}
}

// BenchmarkIntervalReplay measures the timing model over a pre-recorded
// trace — the trace-driven hand-off of the paper's framework, with the
// functional simulator out of the timed loop (batched bulk copies feed the
// window).
func BenchmarkIntervalReplay(b *testing.B) {
	p := workload.SPECByName("gcc")
	tr := trace.Record(workload.New(p, 0, 1, 42), 200_000)
	b.ReportAllocs()
	var insts int64
	for i := 0; i < b.N; i++ {
		res := multicore.Run(multicore.RunConfig{
			Machine: config.Default(1),
			Model:   multicore.Interval,
		}, []trace.Stream{trace.NewSliceStream(tr)})
		insts += int64(res.TotalRetired)
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "simMIPS")
}

// BenchmarkIntervalDispatch measures the per-instruction cost of the
// analytical core model alone (perfect structures).
func BenchmarkIntervalDispatch(b *testing.B) {
	m := config.Default(1)
	m.Branch.Kind = "perfect"
	p := workload.SPECByName("mesa")
	mem := memhier.New(1, m.Mem, memhier.Perfect{ISide: true, DSide: true})
	bp := branch.NewUnit(m.Branch)
	gen := workload.New(p, 0, 1, 42)
	c := core.New(0, m.Core, bp, mem, gen, sim.NullSyncer{})
	b.ResetTimer()
	var now int64
	start := c.Retired()
	for c.Retired()-start < uint64(b.N) {
		c.Step(now)
		now++
	}
}

// BenchmarkDetailedCycle measures the per-instruction cost of the detailed
// model alone (perfect structures) — the 28K-lines-of-C++ stand-in.
func BenchmarkDetailedCycle(b *testing.B) {
	m := config.Default(1)
	m.Branch.Kind = "perfect"
	p := workload.SPECByName("mesa")
	mem := memhier.New(1, m.Mem, memhier.Perfect{ISide: true, DSide: true})
	bp := branch.NewUnit(m.Branch)
	gen := workload.New(p, 0, 1, 42)
	c := ooo.New(0, m.Core, bp, mem, gen, sim.NullSyncer{})
	b.ResetTimer()
	var now int64
	start := c.Retired()
	for c.Retired()-start < uint64(b.N) {
		c.Step(now)
		now++
	}
}

// BenchmarkWorkloadGen measures the functional simulator alone.
func BenchmarkWorkloadGen(b *testing.B) {
	p := workload.SPECByName("gcc")
	g := workload.New(p, 0, 1, 42)
	buf := make([]isa.Inst, 1024) // chunked like the cores' fetch; b.N counts instructions
	b.ResetTimer()
	for left := b.N; left > 0; {
		k := g.NextBatch(buf[:min(left, len(buf))])
		if k == 0 {
			b.Fatal("stream ended")
		}
		left -= k
	}
}

// BenchmarkAblationPrefetch compares a streaming workload with and without
// the next-line prefetcher (a design-space knob beyond the Table 1
// baseline); the report metric is the IPC gained.
func BenchmarkAblationPrefetch(b *testing.B) {
	p := workload.SPECByName("swim")
	run := func(prefetch bool) float64 {
		m := config.Default(1)
		if prefetch {
			m.Mem.Prefetch = "nextline"
			m.Mem.PrefetchDegree = 2
		}
		streams := []trace.Stream{trace.NewLimit(workload.New(p, 0, 1, 42), 20_000)}
		warm := []trace.Stream{workload.New(p, 0, 1, 1042)}
		res := multicore.Run(multicore.RunConfig{
			Machine: m, Model: multicore.Interval,
			WarmupInsts: 200_000, Warmup: warm,
		}, streams)
		return res.Cores[0].IPC
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		base := run(false)
		pf := run(true)
		if base > 0 {
			gain = pf / base
		}
	}
	b.ReportMetric(gain, "ipcGain")
}

// BenchmarkAblationMESI compares MOESI against MESI on a sharing-heavy
// multi-threaded workload; the metric is the relative execution-time cost
// of dropping the Owned state (extra writebacks on dirty sharing).
func BenchmarkAblationMESI(b *testing.B) {
	p := workload.PARSECByName("canneal")
	run := func(protocol string) int64 {
		q := *p
		q.TotalWork = 100_000
		m := config.Default(4)
		m.Mem.Coherence = protocol
		streams := make([]trace.Stream, 4)
		for i := range streams {
			streams[i] = workload.New(&q, i, 4, 42)
		}
		res := multicore.Run(multicore.RunConfig{
			Machine: m, Model: multicore.Interval, MaxCycles: 100_000_000,
		}, streams)
		return res.Cycles
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		moesi := run("moesi")
		mesi := run("mesi")
		if moesi > 0 {
			ratio = float64(mesi) / float64(moesi)
		}
	}
	b.ReportMetric(ratio, "mesiSlowdown")
}
