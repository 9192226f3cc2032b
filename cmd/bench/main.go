// Command bench runs the repository's performance benchmark suite and
// writes a machine-readable JSON report (the BENCH_*.json files checked in
// at the repo root). It is the baseline the CI bench job gates against:
// future PRs rerun it and fail if the interval model's simulation speed
// regresses.
//
// Two stream modes are measured per benchmark:
//
//   - replay: the functional stream is recorded once (untimed) and the
//     timing simulation replays it from memory — the paper's trace-driven
//     hand-off, isolating the timing-model hot loop (headline metric).
//   - generated: the synthetic functional simulator runs inside the timed
//     loop — the end-to-end figure-benchmark configuration.
//
// MIPS numbers come from multicore.Result.MIPS(), which times only the
// simulation loop (construction and functional warmup are excluded), and
// the best of -reps repetitions is reported to shed scheduler noise.
//
// Usage:
//
//	go run ./cmd/bench -out BENCH_3.json
//	go run ./cmd/bench -baseline BENCH_3.json        # regression gate (CI)
//	go run ./cmd/bench -quick                        # fast smoke run
//
// The single-core and model-comparison sections intentionally use only
// APIs that predate the batched-stream work (trace.Record,
// trace.NewSliceStream, multicore.Run), so those sections measure any
// older checkout for before/after comparisons.
//
// The -baseline gate's tolerance is configurable per runner: the
// -tolerance flag wins, and the BENCH_TOLERANCE environment variable
// overrides the built-in 0.20 default — so CI jobs on noisy runners tune
// the gate without code edits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	// Registers the estimator engines the tier-accuracy section compares
	// against the full interval run.
	_ "repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/multicore"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simrun"
	"repro/internal/trace"
	"repro/internal/workload"
)

// specSet is the Fig9-style single-core benchmark set: five integer
// profiles (branchy, pointer-chasing) and three floating-point profiles
// (streaming, chained).
var specSet = []string{"gcc", "vpr", "twolf", "parser", "mcf", "swim", "mesa", "art"}

// ModelResult is one (benchmark, model, stream-mode) measurement.
type ModelResult struct {
	Bench     string  `json:"bench"`
	Model     string  `json:"model"`
	Stream    string  `json:"stream"` // "replay" or "generated"
	Cores     int     `json:"cores"`
	Insts     uint64  `json:"insts"`
	Cycles    int64   `json:"cycles"`
	MIPS      float64 `json:"mips"`
	NsPerInst float64 `json:"ns_per_inst"`
}

// MicroResult is one hot-path micro-benchmark measurement.
type MicroResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// TierResult is one row of the fidelity-tier accuracy smoke check: the
// statistical engine's CPI against the full interval run of the same
// scenario. The statistical tier is a culling estimate, not a
// measurement, so the band is loose — the check exists to catch the
// estimator silently degenerating (several-fold errors), not to certify
// literature-grade accuracy.
type TierResult struct {
	Bench          string  `json:"bench"`
	IntervalCPI    float64 `json:"interval_cpi"`
	StatisticalCPI float64 `json:"statistical_cpi"`
	RelErr         float64 `json:"rel_err"`
}

// Report is the BENCH_*.json schema.
type Report struct {
	Schema  string        `json:"schema"`
	Go      string        `json:"go"`
	NumCPU  int           `json:"num_cpu"`
	Date    string        `json:"date"`
	Params  Params        `json:"params"`
	Models  []ModelResult `json:"models"`
	Tiers   []TierResult  `json:"tiers,omitempty"`
	Micro   []MicroResult `json:"micro"`
	Summary Summary       `json:"summary"`
}

// Params are the run sizes.
type Params struct {
	Insts  int `json:"insts"`
	Warmup int `json:"warmup"`
	Reps   int `json:"reps"`
}

// Summary carries the headline gate metrics.
type Summary struct {
	// IntervalReplayGeomeanMIPS is the geometric-mean interval-model MIPS
	// over the single-core replay set — the number the CI gate compares.
	IntervalReplayGeomeanMIPS float64 `json:"interval_replay_geomean_mips"`
	// IntervalGeneratedGeomeanMIPS is the same with the functional
	// simulator inside the timed loop.
	IntervalGeneratedGeomeanMIPS float64 `json:"interval_generated_geomean_mips"`
	// IntervalAllocsPerInst is allocations per instruction in the
	// interval-core steady-state micro-benchmark (must be 0).
	IntervalAllocsPerInst int64 `json:"interval_allocs_per_inst"`
	// TierMaxRelErr is the worst statistical-vs-interval CPI relative
	// error across the tier-accuracy rows; the tool fails when it
	// exceeds -tier-tolerance.
	TierMaxRelErr float64 `json:"tier_max_rel_err,omitempty"`
}

func main() {
	var (
		out      = flag.String("out", "", "write the JSON report to this file (default stdout)")
		baseline = flag.String("baseline", "", "compare against this baseline report and fail on >-tolerance regression")
		tol      = flag.Float64("tolerance", defaultTolerance(), "allowed fractional drop of the gate metric vs the baseline (default overridable via BENCH_TOLERANCE)")
		insts    = flag.Int("insts", 1_000_000, "timed instructions per single-core benchmark")
		warmup   = flag.Int("warmup", 200_000, "functional warmup instructions per core")
		reps     = flag.Int("reps", 5, "repetitions per measurement (best is reported)")
		quick    = flag.Bool("quick", false, "small sizes for a smoke run")
		tierTol  = flag.Float64("tier-tolerance", 0.4, "allowed statistical-vs-interval CPI relative error in the tier-accuracy check (0 skips the section)")
		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON of the benchmark's simulation spans to this file")
		obsCheck = flag.Bool("obs-overhead", false, "zero-overhead contract check: run only the interval replay set with observability disabled and gate its geomean against -baseline")
	)
	flag.Parse()
	if *quick {
		*insts, *warmup, *reps = 100_000, 50_000, 2
	}
	if *traceOut != "" {
		benchTracer = obs.NewTracer(1 << 16)
	}
	if *obsCheck {
		os.Exit(obsOverhead(*insts, *warmup, *reps, *baseline, *tol))
	}

	rep := Report{
		Schema: "repro-bench/1",
		Go:     runtime.Version(),
		NumCPU: runtime.NumCPU(),
		Date:   time.Now().UTC().Format(time.RFC3339),
		Params: Params{Insts: *insts, Warmup: *warmup, Reps: *reps},
	}
	fmt.Fprintf(os.Stderr, "bench: num_cpu=%d (go %s)\n", rep.NumCPU, rep.Go)

	// Single-core SPEC set: interval in both stream modes; detailed and
	// one-IPC replayed for the model-speed comparison of Figures 9/10.
	var replayMIPS, genMIPS []float64
	for _, name := range specSet {
		p := workload.SPECByName(name)
		tr := trace.Record(workload.New(p, 0, 1, 42), *insts)
		wtr := trace.Record(workload.New(p, 0, 1, 1042), *warmup)

		r := runBest(*reps, multicore.Interval, 1, *warmup,
			func() []trace.Stream { return []trace.Stream{trace.NewSliceStream(tr)} },
			func() []trace.Stream { return []trace.Stream{trace.NewSliceStream(wtr)} })
		rep.Models = append(rep.Models, modelResult(name, "interval", "replay", 1, r))
		replayMIPS = append(replayMIPS, r.MIPS())

		g := runBest(*reps, multicore.Interval, 1, *warmup,
			func() []trace.Stream {
				return []trace.Stream{trace.NewLimit(workload.New(p, 0, 1, 42), *insts)}
			},
			func() []trace.Stream { return []trace.Stream{workload.New(p, 0, 1, 1042)} })
		rep.Models = append(rep.Models, modelResult(name, "interval", "generated", 1, g))
		genMIPS = append(genMIPS, g.MIPS())

		// Fixed order so regenerated reports diff cleanly; the slower
		// comparison models run fewer repetitions.
		const compareReps = 2
		for _, model := range []multicore.Model{multicore.Detailed, multicore.OneIPC} {
			d := runBest(compareReps, model, 1, *warmup,
				func() []trace.Stream { return []trace.Stream{trace.NewSliceStream(tr)} },
				func() []trace.Stream { return []trace.Stream{trace.NewSliceStream(wtr)} })
			rep.Models = append(rep.Models, modelResult(name, model.String(), "replay", 1, d))
		}
	}

	// Multi-program (Fig9-style 4-core) and multi-threaded (Fig10-style
	// PARSEC) interval runs, replayed.
	// One slot per copy — the stream-format-v2 shape simrun.Mix runs
	// (v1's shared address space no longer exists in the product).
	mix := []string{"gcc", "mcf", "swim", "vpr"}
	mtr := make([][]isa.Inst, 4)
	mwtr := make([][]isa.Inst, 4)
	for i, name := range mix {
		p := workload.SPECByName(name)
		mtr[i] = trace.Record(workload.NewSlot(p, 0, 1, int64(42+i), i), *insts/4)
		mwtr[i] = trace.Record(workload.NewSlot(p, 0, 1, int64(1042+i), i), *warmup)
	}
	mres := runBest(*reps, multicore.Interval, 4, *warmup,
		func() []trace.Stream { return sliceStreams(mtr) },
		func() []trace.Stream { return sliceStreams(mwtr) })
	rep.Models = append(rep.Models, modelResult("mix4", "interval", "replay", 4, mres))

	pp := workload.PARSECByName("blackscholes")
	q := *pp
	q.TotalWork = uint64(*insts)
	ptr := make([][]isa.Inst, 4)
	for i := 0; i < 4; i++ {
		ptr[i] = trace.Record(workload.New(&q, i, 4, 42), 2*(*insts))
	}
	pres := runBest(*reps, multicore.Interval, 4, 0,
		func() []trace.Stream { return sliceStreams(ptr) }, nil)
	rep.Models = append(rep.Models, modelResult("blackscholes4", "interval", "replay", 4, pres))

	// Fidelity-tier accuracy smoke check: the statistical engine's CPI
	// against the full interval run on a few single-program scenarios.
	if *tierTol > 0 {
		rep.Tiers, rep.Summary.TierMaxRelErr = tierAccuracy(*insts, *warmup)
		for _, tr := range rep.Tiers {
			fmt.Fprintf(os.Stderr, "bench: tier %-6s interval CPI %.3f, statistical CPI %.3f (err %.0f%%)\n",
				tr.Bench, tr.IntervalCPI, tr.StatisticalCPI, 100*tr.RelErr)
		}
		if rep.Summary.TierMaxRelErr > *tierTol {
			fmt.Fprintf(os.Stderr, "bench: FAIL statistical tier CPI error %.0f%% exceeds the %.0f%% band\n",
				100*rep.Summary.TierMaxRelErr, 100**tierTol)
			os.Exit(1)
		}
	}

	// Hot-path micro-benchmarks.
	rep.Micro, rep.Summary.IntervalAllocsPerInst = microBenchmarks()

	rep.Summary.IntervalReplayGeomeanMIPS = geomean(replayMIPS)
	rep.Summary.IntervalGeneratedGeomeanMIPS = geomean(genMIPS)

	if benchTracer != nil {
		if err := writeTrace(*traceOut, benchTracer); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	raw = append(raw, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		os.Stdout.Write(raw)
	}
	fmt.Fprintf(os.Stderr, "bench: interval replay geomean %.2f MIPS, generated %.2f MIPS, %d allocs/inst\n",
		rep.Summary.IntervalReplayGeomeanMIPS, rep.Summary.IntervalGeneratedGeomeanMIPS,
		rep.Summary.IntervalAllocsPerInst)

	if *baseline != "" {
		gate(*baseline, rep, *tol)
	}
}

// benchTracer, when -trace is set, collects spans from the sections
// that run through instrumented drivers (tier accuracy).
var benchTracer *obs.Tracer

// writeTrace dumps the recorded spans as Chrome trace_event JSON.
func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// obsOverhead is the -obs-overhead mode: the single-core interval replay
// set with observability fully disabled (nil Trace and Heartbeat — the
// default RunConfig), gated against the baseline's replay geomean. The
// instrumented driver promises zero cost when hooks are off; a
// regression here means the disabled hooks are not free.
func obsOverhead(insts, warmup, reps int, baseline string, tol float64) int {
	var mips []float64
	for _, name := range specSet {
		p := workload.SPECByName(name)
		tr := trace.Record(workload.New(p, 0, 1, 42), insts)
		wtr := trace.Record(workload.New(p, 0, 1, 1042), warmup)
		r := runBest(reps, multicore.Interval, 1, warmup,
			func() []trace.Stream { return []trace.Stream{trace.NewSliceStream(tr)} },
			func() []trace.Stream { return []trace.Stream{trace.NewSliceStream(wtr)} })
		mips = append(mips, r.MIPS())
		fmt.Fprintf(os.Stderr, "bench: obs-overhead %-8s %.2f MIPS\n", name, r.MIPS())
	}
	g := geomean(mips)
	fmt.Fprintf(os.Stderr, "bench: obs-overhead interval replay geomean %.2f MIPS (observability disabled)\n", g)
	if baseline == "" {
		return 0
	}
	raw, err := os.ReadFile(baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: baseline:", err)
		return 1
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintln(os.Stderr, "bench: baseline:", err)
		return 1
	}
	want := base.Summary.IntervalReplayGeomeanMIPS * (1 - tol)
	if g < want {
		fmt.Fprintf(os.Stderr,
			"bench: FAIL obs-overhead geomean %.2f MIPS < %.2f (baseline %.2f - %.0f%%): disabled observability hooks cost measurable speed\n",
			g, want, base.Summary.IntervalReplayGeomeanMIPS, tol*100)
		return 1
	}
	fmt.Fprintf(os.Stderr, "bench: PASS obs-overhead %.2f MIPS vs baseline %.2f (tolerance %.0f%%)\n",
		g, base.Summary.IntervalReplayGeomeanMIPS, tol*100)
	return 0
}

// defaultTolerance is the -tolerance default: 0.20 unless the
// BENCH_TOLERANCE environment variable overrides it, so CI runners with
// different noise floors tune the gate without code edits.
func defaultTolerance() float64 {
	if v := os.Getenv("BENCH_TOLERANCE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f >= 0 && f < 1 {
			return f
		}
		fmt.Fprintf(os.Stderr, "bench: ignoring bad BENCH_TOLERANCE=%q (want a fraction in [0,1))\n", v)
	}
	return 0.20
}

// runBest runs the configuration reps times and returns the run with the
// highest MIPS (minimum-noise estimator for a deterministic simulation).
func runBest(reps int, model multicore.Model, cores, warmup int,
	streams func() []trace.Stream, warm func() []trace.Stream) multicore.Result {
	var best multicore.Result
	for r := 0; r < reps; r++ {
		cfg := multicore.RunConfig{
			Machine:     config.Default(cores),
			Model:       model,
			WarmupInsts: warmup,
		}
		if warm != nil {
			cfg.Warmup = warm()
		}
		res := multicore.Run(cfg, streams())
		if res.MIPS() > best.MIPS() {
			best = res
		}
	}
	return best
}

func sliceStreams(traces [][]isa.Inst) []trace.Stream {
	out := make([]trace.Stream, len(traces))
	for i, tr := range traces {
		out[i] = trace.NewSliceStream(tr)
	}
	return out
}

func modelResult(bench, model, stream string, cores int, r multicore.Result) ModelResult {
	ns := 0.0
	if r.TotalRetired > 0 {
		ns = float64(r.Wall.Nanoseconds()) / float64(r.TotalRetired)
	}
	return ModelResult{
		Bench: bench, Model: model, Stream: stream, Cores: cores,
		Insts: r.TotalRetired, Cycles: r.Cycles,
		MIPS: r.MIPS(), NsPerInst: ns,
	}
}

// microBenchmarks times the simulator hot paths via testing.Benchmark and
// returns the interval-core steady-state allocations per instruction as the
// gate value.
func microBenchmarks() ([]MicroResult, int64) {
	var out []MicroResult
	add := func(name string, r testing.BenchmarkResult) int64 {
		out = append(out, MicroResult{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
		})
		return r.AllocsPerOp()
	}

	allocs := add("interval_steady_state", testing.Benchmark(func(b *testing.B) {
		m := config.Default(1)
		p := workload.SPECByName("mesa")
		mem := memhier.New(1, m.Mem, memhier.Perfect{ISide: true, DSide: true})
		bp := branch.NewUnit(m.Branch)
		c := multicore.NewCore(multicore.Interval, 0, m.Core, core.Options{}, bp, mem, workload.New(p, 0, 1, 42), sim.NullSyncer{})
		// Enter steady state before counting.
		var now int64
		for c.Retired() < 10_000 {
			c.Step(now)
			now++
		}
		b.ReportAllocs()
		b.ResetTimer()
		start := c.Retired()
		for c.Retired()-start < uint64(b.N) {
			c.Step(now)
			now++
		}
	}))

	add("oneipc_steady_state", testing.Benchmark(func(b *testing.B) {
		m := config.Default(1)
		p := workload.SPECByName("mesa")
		mem := memhier.New(1, m.Mem, memhier.Perfect{ISide: true, DSide: true})
		c := multicore.NewCore(multicore.OneIPC, 0, m.Core, core.Options{}, nil, mem, workload.New(p, 0, 1, 42), sim.NullSyncer{})
		b.ReportAllocs()
		b.ResetTimer()
		var now int64
		start := c.Retired()
		for c.Retired()-start < uint64(b.N) {
			c.Step(now)
			now++
		}
	}))

	add("workload_gen", testing.Benchmark(func(b *testing.B) {
		// Chunked like the cores' fetch; b.N still counts instructions.
		g := workload.New(workload.SPECByName("gcc"), 0, 1, 42)
		buf := make([]isa.Inst, 1024)
		b.ReportAllocs()
		b.ResetTimer()
		for left := b.N; left > 0; {
			k := g.NextBatch(buf[:min(left, len(buf))])
			if k == 0 {
				b.Fatal("stream ended")
			}
			left -= k
		}
	}))

	add("memhier_data", testing.Benchmark(func(b *testing.B) {
		h := memhier.New(1, config.Default(1).Mem, memhier.Perfect{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Data(0, uint64(i%4096)*64, false, int64(i))
		}
	}))

	add("cache_access", testing.Benchmark(func(b *testing.B) {
		c := cache.New(config.Default(1).Mem.L1D)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := uint64(i&1023) * 64
			if !c.Access(a, false) {
				c.Fill(a, false)
			}
		}
	}))

	add("branch_predict", testing.Benchmark(func(b *testing.B) {
		u := branch.NewUnit(config.Default(1).Branch)
		in := isa.Inst{Class: isa.Branch, PC: 0x400100, Taken: true, Target: 0x400000}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in.Taken = i&7 != 0
			u.Predict(&in)
		}
	}))

	return out, allocs
}

// tierAccuracy runs the tier-accuracy rows: each benchmark at full
// interval fidelity and through the statistical engine (the cheapest
// tier the simd service answers from), comparing CPI. Returns the rows
// and the worst relative error.
func tierAccuracy(insts, warmup int) ([]TierResult, float64) {
	die := func(name string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: tier check %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	var rows []TierResult
	var worst float64
	for _, name := range []string{"gcc", "mcf", "swim"} {
		opts := []simrun.Option{simrun.Insts(insts), simrun.Warmup(warmup), simrun.Seed(42)}
		if benchTracer != nil {
			opts = append(opts, simrun.Observe(&obs.Observer{Tracer: benchTracer}))
		}
		full, err := simrun.New(name, opts...)
		die(name, err)
		est, err := full.ForEngine("statistical")
		die(name, err)
		fres, err := full.Run(context.Background())
		die(name, err)
		eres, err := est.Run(context.Background())
		die(name, err)
		row := TierResult{
			Bench:          name,
			IntervalCPI:    cpi(fres.Result),
			StatisticalCPI: cpi(eres.Result),
		}
		if row.IntervalCPI > 0 {
			row.RelErr = math.Abs(row.StatisticalCPI-row.IntervalCPI) / row.IntervalCPI
		}
		if row.RelErr > worst {
			worst = row.RelErr
		}
		rows = append(rows, row)
	}
	return rows, worst
}

// cpi is cycles per retired instruction.
func cpi(r multicore.Result) float64 {
	if r.TotalRetired == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.TotalRetired)
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// gate compares the current report against a baseline file and exits
// non-zero when the interval replay geomean dropped more than tol.
func gate(path string, cur Report, tol float64) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: baseline:", err)
		os.Exit(1)
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintln(os.Stderr, "bench: baseline:", err)
		os.Exit(1)
	}
	want := base.Summary.IntervalReplayGeomeanMIPS * (1 - tol)
	got := cur.Summary.IntervalReplayGeomeanMIPS
	if got < want {
		fmt.Fprintf(os.Stderr,
			"bench: FAIL interval replay geomean %.2f MIPS < %.2f (baseline %.2f - %.0f%%)\n",
			got, want, base.Summary.IntervalReplayGeomeanMIPS, tol*100)
		os.Exit(1)
	}
	if cur.Summary.IntervalAllocsPerInst > 0 {
		fmt.Fprintf(os.Stderr, "bench: FAIL %d allocs/inst in the interval-core steady state (want 0)\n",
			cur.Summary.IntervalAllocsPerInst)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: PASS %.2f MIPS vs baseline %.2f (tolerance %.0f%%)\n",
		got, base.Summary.IntervalReplayGeomeanMIPS, tol*100)
}
