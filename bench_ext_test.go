// Extension benchmarks: ablations of the interval model's refinements
// (DESIGN.md §6), the substrate alternatives (directory coherence, NoC
// fabrics, banked DRAM, stride prefetching, MLP capping) and the
// orthogonal speedup techniques (statistical simulation, SimPoint phase
// sampling). Each reports a domain metric alongside the usual ns/op.
package main

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/multicore"
	"repro/internal/sampling"
	"repro/internal/statsim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ablationProfiles is the mixed set the model-ablation benchmarks sweep:
// branchy, pointer-chasing, streaming and branch-mispredicting.
var ablationProfiles = []string{"gcc", "mcf", "swim", "vpr"}

// runModel times one profile under one model/ablation and returns IPC.
func runModel(name string, model multicore.Model, opts core.Options, mutate func(*config.Machine)) float64 {
	m := config.Default(1)
	if mutate != nil {
		mutate(&m)
	}
	p := workload.SPECByName(name)
	res := multicore.Run(multicore.RunConfig{
		Machine:     m,
		Model:       model,
		Ablation:    opts,
		WarmupInsts: 200_000,
		Warmup:      []trace.Stream{workload.New(p, 0, 1, 1042)},
	}, []trace.Stream{trace.NewLimit(workload.New(p, 0, 1, 42), 20_000)})
	return res.Cores[0].IPC
}

// BenchmarkAblationModel quantifies what each refinement of DESIGN.md §6
// buys: for every ablation variant it reports the mean absolute IPC error
// against the detailed baseline over the mixed profile set. The "full"
// sub-benchmark is the validated model; each other variant disables one
// refinement and should show a larger error.
func BenchmarkAblationModel(b *testing.B) {
	variants := []core.Options{
		{},
		{NoROBFillHiding: true},
		{FlushOldWindow: true},
		{NoOverlapScan: true},
		{NoTaint: true},
		{NoDispatchFloor: true},
	}
	detailed := make(map[string]float64, len(ablationProfiles))
	for _, p := range ablationProfiles {
		detailed[p] = runModel(p, multicore.Detailed, core.Options{}, nil)
	}
	for _, v := range variants {
		b.Run(v.Name(), func(b *testing.B) {
			var meanErr float64
			for i := 0; i < b.N; i++ {
				var sum float64
				for _, p := range ablationProfiles {
					ipc := runModel(p, multicore.Interval, v, nil)
					sum += math.Abs(ipc-detailed[p]) / detailed[p]
				}
				meanErr = sum / float64(len(ablationProfiles))
			}
			b.ReportMetric(100*meanErr, "avgErr%")
		})
	}
}

// BenchmarkAblationMLPCap measures what outstanding-miss capacity buys a
// streaming workload: IPC with the full 32-entry budget over IPC with a
// single outstanding miss (no MLP).
func BenchmarkAblationMLPCap(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		wide := runModel("swim", multicore.Interval, core.Options{}, nil)
		narrow := runModel("swim", multicore.Interval, core.Options{},
			func(m *config.Machine) { m.Core.MaxOutstandingMisses = 1 })
		if narrow > 0 {
			gain = wide / narrow
		}
	}
	b.ReportMetric(gain, "mlpGain")
}

// BenchmarkAblationDirectory compares directory MESI against snooping
// MOESI on a sharing-heavy multi-threaded workload (cycles ratio; the
// directory pays home-node lookups, snooping pays broadcast serialization).
func BenchmarkAblationDirectory(b *testing.B) {
	run := func(protocol string) int64 {
		p := workload.PARSECByName("canneal")
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
		snoop := run("moesi")
		dir := run("directory")
		if snoop > 0 {
			ratio = float64(dir) / float64(snoop)
		}
	}
	b.ReportMetric(ratio, "dirSlowdown")
}

// BenchmarkAblationFabric compares the bus against the mesh and ring NoCs
// on an 8-core multi-program run (execution-time ratios; >1 means the bus
// is slower).
func BenchmarkAblationFabric(b *testing.B) {
	run := func(fabric string) int64 {
		m := config.Default(8)
		m.Mem.Interconnect = fabric
		streams := make([]trace.Stream, 8)
		warms := make([]trace.Stream, 8)
		mix := []string{"swim", "mcf", "gcc", "art"}
		for i := range streams {
			p := workload.SPECByName(mix[i%len(mix)])
			streams[i] = trace.NewLimit(workload.New(p, 0, 1, int64(42+i)), 10_000)
			warms[i] = workload.New(p, 0, 1, int64(1042+i))
		}
		res := multicore.Run(multicore.RunConfig{
			Machine: m, Model: multicore.Interval,
			WarmupInsts: 100_000, Warmup: warms,
		}, streams)
		return res.Cycles
	}
	var mesh, ring float64
	for i := 0; i < b.N; i++ {
		bus := run("bus")
		if bus > 0 {
			mesh = float64(bus) / float64(run("mesh"))
			ring = float64(bus) / float64(run("ring"))
		}
	}
	b.ReportMetric(mesh, "meshSpeedup")
	b.ReportMetric(ring, "ringSpeedup")
}

// BenchmarkAblationBankedDRAM measures the row-buffer payoff on a
// streaming workload: banked IPC over fixed-latency IPC.
func BenchmarkAblationBankedDRAM(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		fixed := runModel("swim", multicore.Interval, core.Options{}, nil)
		banked := runModel("swim", multicore.Interval, core.Options{},
			func(m *config.Machine) { m.Mem.DRAMKind = "banked" })
		if fixed > 0 {
			gain = banked / fixed
		}
	}
	b.ReportMetric(gain, "rowBufferGain")
}

// BenchmarkAblationStridePrefetch measures the stride prefetcher on the
// streaming swim profile against no prefetching.
func BenchmarkAblationStridePrefetch(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		base := runModel("swim", multicore.Interval, core.Options{}, nil)
		pf := runModel("swim", multicore.Interval, core.Options{}, func(m *config.Machine) {
			m.Mem.Prefetch = "stride"
			m.Mem.PrefetchDegree = 4
		})
		if base > 0 {
			gain = pf / base
		}
	}
	b.ReportMetric(gain, "ipcGain")
}

// BenchmarkAblationWrongPath measures how much the functional-first
// limitation (no wrong-path simulation, §3.2 of the paper) matters: the
// IPC shift when wrong-path I-side traffic is modeled. For profiles whose
// code fits the L1I the shift is ~0 (supporting the paper's choice of
// functional-first); for I-side-heavy eon the wrong path acts as an
// accidental instruction prefetcher and shifts IPC by double digits — the
// sensitivity a timing-directed implementation would have to resolve.
func BenchmarkAblationWrongPath(b *testing.B) {
	for _, name := range []string{"vpr", "eon"} {
		b.Run(name, func(b *testing.B) {
			var shift float64
			for i := 0; i < b.N; i++ {
				base := runModel(name, multicore.Interval, core.Options{}, nil)
				wp := runModel(name, multicore.Interval, core.Options{WrongPathFetch: true}, nil)
				if base > 0 {
					shift = 100 * math.Abs(wp-base) / base
				}
			}
			b.ReportMetric(shift, "ipcShift%")
		})
	}
}

// BenchmarkAblationTAGE compares the Table 1 local predictor against the
// TAGE upgrade on a branchy profile (IPC ratio).
func BenchmarkAblationTAGE(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		local := runModel("vpr", multicore.Interval, core.Options{}, nil)
		tage := runModel("vpr", multicore.Interval, core.Options{},
			func(m *config.Machine) { m.Branch.Kind = "tage" })
		if local > 0 {
			gain = tage / local
		}
	}
	b.ReportMetric(gain, "ipcGain")
}

// BenchmarkStatSimClone measures the statistical-simulation pipeline:
// profile a stream, generate a 5x-shorter clone, time both on the interval
// model, and report the clone's IPC error.
func BenchmarkStatSimClone(b *testing.B) {
	const n, warm = 60_000, 20_000
	p := workload.SPECByName("gcc")
	ipcOf := func(src trace.Stream, warmN int) float64 {
		head := trace.Record(src, warmN)
		res := multicore.Run(multicore.RunConfig{
			Machine: config.Default(1), Model: multicore.Interval,
			WarmupInsts: warmN,
			Warmup:      []trace.Stream{trace.NewSliceStream(head)},
		}, []trace.Stream{src})
		return res.Cores[0].IPC
	}
	var errPct float64
	for i := 0; i < b.N; i++ {
		prof := statsim.CollectWarm(workload.New(p, 0, 1, 42), warm, n+warm)
		orig := ipcOf(trace.NewLimit(workload.New(p, 0, 1, 42), n+warm), warm)
		clone := ipcOf(statsim.NewClone(prof, warm+n/5, 99), warm)
		errPct = 100 * math.Abs(orig-clone) / orig
	}
	b.ReportMetric(errPct, "cloneErr%")
}

// BenchmarkCoPhase measures the co-phase-matrix pipeline (Van Biesbrouck
// et al.): phase-classify two programs, co-simulate each phase pair once,
// and report the predicted-vs-actual co-run IPC error for the first
// program.
func BenchmarkCoPhase(b *testing.B) {
	const segLen = 4000
	mkPhased := func(x, y string, seedX, seedY int64) []isa.Inst {
		gx := workload.New(workload.SPECByName(x), 0, 1, seedX)
		gy := workload.New(workload.SPECByName(y), 0, 1, seedY)
		out := trace.Record(gx, segLen)
		for s := 1; s < 10; s++ {
			g := trace.Stream(gx)
			if s%2 == 1 {
				g = gy
			}
			out = append(out, trace.Record(g, segLen)...)
		}
		return out
	}
	pa := mkPhased("gcc", "swim", 42, 43)
	pb := mkPhased("mcf", "gcc", 44, 45)
	m := config.Default(2)
	actual := multicore.Run(multicore.RunConfig{Machine: m, Model: multicore.Interval},
		[]trace.Stream{trace.NewSliceStream(pa), trace.NewSliceStream(pb)})

	var errPct float64
	for i := 0; i < b.N; i++ {
		res, err := sampling.CoPhaseEstimate(pa, pb, sampling.CoPhaseConfig{
			IntervalLen: segLen, K: 2, Seed: 9, Machine: m, Model: multicore.Interval,
		})
		if err != nil {
			b.Fatal(err)
		}
		errPct = 100 * math.Abs(res.Predicted[0]-actual.Cores[0].IPC) / actual.Cores[0].IPC
	}
	b.ReportMetric(errPct, "estErr%")
}

// BenchmarkSimPoint measures the phase-sampling pipeline: classify a
// phased stream, time one representative per phase, and report the
// estimate's error against the full run.
func BenchmarkSimPoint(b *testing.B) {
	const segLen = 4000
	ga := workload.New(workload.SPECByName("gcc"), 0, 1, 42)
	gs := workload.New(workload.SPECByName("swim"), 0, 1, 43)
	var insts = trace.Record(ga, segLen)
	for s := 1; s < 20; s++ {
		g := trace.Stream(ga)
		if s%2 == 1 {
			g = gs
		}
		insts = append(insts, trace.Record(g, segLen)...)
	}
	m := config.Default(1)
	full := multicore.Run(multicore.RunConfig{Machine: m, Model: multicore.Interval},
		[]trace.Stream{trace.NewSliceStream(insts)})
	fullIPC := full.Cores[0].IPC

	var errPct float64
	for i := 0; i < b.N; i++ {
		sp, err := sampling.Analyze(insts, sampling.SimPointConfig{
			IntervalLen: segLen, K: 2, Seed: 9,
		})
		if err != nil {
			b.Fatal(err)
		}
		est, err := sampling.EstimateIPC(insts, sp, multicore.RunConfig{Machine: m, Model: multicore.Interval})
		if err != nil {
			b.Fatal(err)
		}
		errPct = 100 * math.Abs(est-fullIPC) / fullIPC
	}
	b.ReportMetric(errPct, "estErr%")
}
