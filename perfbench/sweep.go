package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	// Registers the statistical engine that answers phase 1.
	_ "repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/simrun"
	"repro/internal/workload"
)

// The design space. Phase 1 estimates every single-program point (profile
// × predictor × prefetcher) with the statistical engine; phase 2 runs the
// top promoteFrac of them at full interval fidelity, together with the
// 4-core points the estimator cannot handle. The three machine
// configurations of the 4-core points cover each of fabric {bus, mesh,
// ring}, coherence {moesi, directory} and DRAM {fixed, banked} at least
// once.
var (
	sweepProfiles    = []string{"gcc", "twolf", "mcf", "art"}
	sweepPredictors  = []string{"local", "tage"}
	sweepPrefetchers = []string{"none", "stride"}
	sweepMix         = []string{"gcc", "mcf", "swim", "vpr"}
	sweepMachines    = [][3]string{{"bus", "moesi", "fixed"}, {"mesh", "directory", "banked"}, {"ring", "moesi", "banked"}}
)

const (
	// sweepInsts is the single-program budget. The statistical engine's
	// cost is fixed (about 1.5M generated instructions), so the budget is
	// large enough for an estimate to cost a fraction of a full run.
	sweepInsts  = 5_000_000
	sweepWarmup = 200_000
	// mixInsts is the per-core budget of the 4-core Mix points; canneal
	// carries its own work budget.
	mixInsts   = 500_000
	quadWarmup = 100_000
	// promoteFrac is the share of estimated points promoted to full
	// fidelity, as in sweep -adaptive's default -top.
	promoteFrac = 0.25
)

// sweepBench is the design-sweep workload.
type sweepBench struct {
	seed    int64
	single  []*simrun.Scenario // full-fidelity single-program points
	est     []*simrun.Scenario // their statistical twins
	quad    []*simrun.Scenario // 4-core points
	workers int
}

func (b *sweepBench) setup(e *env, tr *tracer) {
	b.single, b.est, b.quad = nil, nil, nil
	b.workers = runtime.GOMAXPROCS(0)
	sid := tr.start("setup", 0)
	defer tr.end(sid, "", nil)
	var warm []*simrun.Scenario
	for _, p := range sweepProfiles {
		for _, pred := range sweepPredictors {
			for _, pf := range sweepPrefetchers {
				sc, err := b.point(p, pred, pf, sweepInsts)
				if !e.op(err) {
					continue
				}
				est, err := sc.ForEngine("statistical")
				if !e.op(err) {
					continue
				}
				b.single = append(b.single, sc)
				b.est = append(b.est, est)
				w, err := b.point(p, pred, pf, setupWarmInsts)
				if e.op(err) {
					warm = append(warm, w)
				}
			}
		}
	}
	for _, m := range sweepMachines {
		for _, small := range []bool{false, true} {
			mix, err := b.mix(m, small)
			if e.op(err) {
				if small {
					warm = append(warm, mix)
				} else {
					b.quad = append(b.quad, mix)
				}
			}
			can, err := b.canneal(m, small)
			if e.op(err) {
				if small {
					warm = append(warm, can)
				} else {
					b.quad = append(b.quad, can)
				}
			}
		}
	}
	// Untimed warm-up: a short run of every full-fidelity point.
	for _, sc := range warm {
		_, err := sc.Run(context.Background())
		e.op(err)
	}
}

// point is one single-program design point with an n-instruction budget.
func (b *sweepBench) point(p, pred, pf string, n int) (*simrun.Scenario, error) {
	return simrun.New(p, simrun.Insts(n), simrun.Warmup(min(sweepWarmup, n/5)), simrun.Seed(b.seed),
		simrun.Predictor(pred), simrun.Prefetch(pf), simrun.KeepCores(), simrun.Label(p+"/"+pred+"/"+pf))
}

// knobs are the options of a 4-core point on machine m.
func (b *sweepBench) knobs(m [3]string) []simrun.Option {
	return []simrun.Option{simrun.Fabric(m[0]), simrun.Coherence(m[1]), simrun.DRAM(m[2]),
		simrun.Seed(b.seed), simrun.KeepCores()}
}

// mix is the slot-separated Mix point on machine m; small is its
// set-up warm-up size.
func (b *sweepBench) mix(m [3]string, small bool) (*simrun.Scenario, error) {
	n, w := mixInsts, quadWarmup
	if small {
		n, w = setupWarmInsts/4, setupWarmInsts/20
	}
	return simrun.New("", append(b.knobs(m), simrun.Mix(sweepMix...), simrun.Insts(n), simrun.Warmup(w),
		simrun.Label("mix4/"+strings.Join(m[:], "/")))...)
}

// canneal is the 4-thread canneal point on machine m; small is its
// set-up warm-up size.
func (b *sweepBench) canneal(m [3]string, small bool) (*simrun.Scenario, error) {
	opts := append(b.knobs(m), simrun.Cores(4), simrun.Warmup(quadWarmup), simrun.Label("canneal4/"+strings.Join(m[:], "/")))
	if small {
		opts = append(opts, simrun.WorkScale(0.1), simrun.Warmup(setupWarmInsts/20))
	}
	return simrun.New("canneal", opts...)
}

// sweepPhase is one measurement window of the design sweep.
type sweepPhase struct {
	multicoreMIPS []float64 // 4-core points, per pass
	refMIPS       []float64 // promoted single-program points, per pass
	pointsPerS    []float64 // design points answered per wall second
	estimate      []sim     // first pass, per single-program point
	full          map[string]sim
	promoted      []int
	fullInsts     uint64 // instructions of all full-fidelity runs in the window
	names         []string
	tr            *tracer
}

// batch runs scs through simrun.Batch, labelled seg in the CPU profile
// and traced under parent.
func (b *sweepBench) batch(e *env, tr *tracer, seg string, scs []*simrun.Scenario, parent int) []simrun.BatchResult {
	for _, sc := range scs {
		tr.observe(sc)
	}
	bid := tr.start("simrun.Batch", parent)
	queued := tr.startS(bid)
	w0 := time.Now()
	var res []simrun.BatchResult
	inSegment(seg, func() { res = simrun.Batch(context.Background(), scs, simrun.BatchOpts{Workers: b.workers}) })
	wall := time.Since(w0)
	e.sampleHeap()
	var busy float64
	for _, sc := range scs {
		busy += tr.adopt(sc, bid, queued)
	}
	tr.addBatch(b.workers, wall.Seconds(), busy)
	tr.end(bid, seg, map[string]int64{"points": int64(len(scs))})
	for _, r := range res {
		if r.Err != nil {
			e.op(fmt.Errorf("%s: %w", r.Scenario.Name(), r.Err))
		} else {
			e.op(nil)
		}
	}
	return res
}

func (b *sweepBench) measure(e *env, tr *tracer) phase {
	ph := &sweepPhase{full: map[string]sim{}, tr: tr}
	wid := tr.start("window", 0)
	defer tr.end(wid, "", nil)
	deadline := time.Now().Add(e.window)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		pid := tr.start("pass", wid)
		w0 := time.Now()

		// Phase 1: estimate every single-program point, rank by IPC.
		est := make([]sim, len(b.est))
		for i, r := range b.batch(e, tr, "estimate", b.est, pid) {
			if r.Err == nil {
				est[i] = simOf(r.Result)
				e.check(est[i].retired == sweepInsts && est[i].cycles > 0, "%s: estimate answered %d instructions in %d cycles", r.Scenario.Name(), est[i].retired, est[i].cycles)
			}
		}
		order := make([]int, len(est))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, c int) bool { return est[order[a]].ipc() > est[order[c]].ipc() })
		promoted := append([]int(nil), order[:int(math.Round(promoteFrac*float64(len(order))))]...)
		sort.Ints(promoted)

		// Phase 2: full fidelity for the promoted points and every
		// 4-core point.
		var scs []*simrun.Scenario
		for _, i := range promoted {
			scs = append(scs, b.single[i])
		}
		scs = append(scs, b.quad...)
		var quadInsts, singleInsts uint64
		var quadWall, singleWall time.Duration
		full := map[string]sim{}
		for i, r := range b.batch(e, tr, "full", scs, pid) {
			if r.Err != nil {
				continue
			}
			s := simOf(r.Result)
			full[r.Scenario.Name()] = s
			ph.fullInsts += s.retired
			if i < len(promoted) {
				singleInsts += s.retired
				singleWall += r.Result.Wall
				e.check(s.retired == sweepInsts && s.cycles > 0, "%s: retired %d instructions in %d cycles, want %d", r.Scenario.Name(), s.retired, s.cycles, sweepInsts)
			} else {
				quadInsts += s.retired
				quadWall += r.Result.Wall
				e.check(s.retired > 0 && s.cycles > 0 && !r.Result.TimedOut, "%s: retired %d instructions in %d cycles", r.Scenario.Name(), s.retired, s.cycles)
			}
		}
		wall := time.Since(w0)
		tr.end(pid, "", nil)

		if pass == 0 {
			ph.estimate, ph.full, ph.promoted = est, full, promoted
			for _, sc := range scs {
				ph.names = append(ph.names, sc.Name())
			}
		} else {
			e.check(fmt.Sprint(est) == fmt.Sprint(ph.estimate), "pass %d: statistical estimates differ from pass 0", pass)
			e.check(fmt.Sprint(promoted) == fmt.Sprint(ph.promoted), "pass %d: promoted %v, pass 0 promoted %v", pass, promoted, ph.promoted)
			for name, s := range full {
				e.check(s == ph.full[name], "%s: pass %d simulated differently from pass 0 (%s vs %s)", name, pass, s, ph.full[name])
			}
		}
		ph.multicoreMIPS = append(ph.multicoreMIPS, ratio(float64(quadInsts), quadWall.Seconds()*1e6))
		ph.refMIPS = append(ph.refMIPS, ratio(float64(singleInsts), singleWall.Seconds()*1e6))
		ph.pointsPerS = append(ph.pointsPerS, float64(len(b.single)+len(b.quad))/wall.Seconds())
	}
	return ph
}

// verify has nothing to add: every sweep pass is checked against the
// first.
func (b *sweepBench) verify(*env, phase) {}

// tierErr is the statistical-vs-full CPI error of each promoted point, in
// percent.
func (ph *sweepPhase) tierErr() []float64 {
	var out []float64
	for k, i := range ph.promoted {
		f := ph.full[ph.names[k]]
		est, full := ratio(float64(ph.estimate[i].cycles), float64(ph.estimate[i].retired)), ratio(float64(f.cycles), float64(f.retired))
		out = append(out, 100*ratio(math.Abs(est-full), full))
	}
	return out
}

// tierErrSummary is the average and worst tier error.
func (ph *sweepPhase) tierErrSummary() (avg, worst float64) {
	errs := ph.tierErr()
	for _, v := range errs {
		worst = math.Max(worst, v)
	}
	return mean(errs), worst
}

func (ph *sweepPhase) endToEnd() []metric {
	for k, v := range ph.tierErr() {
		fmt.Printf("  tier %-22s statistical-vs-full CPI error %.2f%%\n", ph.names[k], v)
	}
	avg, worst := ph.tierErrSummary()
	fmt.Printf("  tier_err_avg_pct %.4f %%, tier_err_max_pct %.4f %% (simulated, exact for a seed)\n", avg, worst)
	return []metric{
		{name: "interval_mips", unit: "MIPS", samples: ph.multicoreMIPS},
		{name: "ref_mips", unit: "MIPS", samples: ph.refMIPS},
		{name: "answers_per_s", unit: "1/s", samples: ph.pointsPerS},
	}
}

func (ph *sweepPhase) digest() string {
	h := fnv.New64a()
	for i, s := range ph.estimate {
		fmt.Fprintf(h, "estimate %d %s\n", i, s)
	}
	for _, name := range ph.names {
		fmt.Fprintf(h, "%s %s\n", name, ph.full[name])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func (ph *sweepPhase) layers(pr probeResult, prof *profile, untraced phase) []metric {
	plain := untraced.(*sweepPhase)
	var s sim
	for _, name := range ph.names {
		s.add(ph.full[name])
	}
	stat := ph.tr.engineTimes("statistical", 1)
	full := ph.tr.engineTimes(simrun.DefaultEngine, 1)
	fmt.Printf("  engine.statistical_s p50 %.4f p75 %.4f s over %d estimates; full single-program p50 %.4f s\n",
		percentile(stat, 50), percentile(stat, 75), len(stat), percentile(full, 50))
	ms := ph.tr.runLayers("interval")
	tierAvg, tierMax := plain.tierErrSummary()
	ms = append(ms, pr.metrics(plain.fullInsts)...)
	ms = append(ms, s.metrics()...)
	ms = append(ms,
		one("core.ns_per_inst", "ns", ratio(prof.layerNS("full", "core"), float64(ph.fullInsts))),
		one("engine.cost_ratio", "x", ratio(percentile(full, 50), percentile(stat, 50))),
		one("engine.tier_err_avg_pct", "%", tierAvg),
		one("engine.tier_err_max_pct", "%", tierMax),
		one("fig9.speedup_vs_detailed", "x", 0),
		one("fig5.err_avg_pct", "%", 0),
		one("fig5.err_max_pct", "%", 0),
		one("obs.trace_overhead_pct", "%", 100*(1-ratio(median(ph.multicoreMIPS), median(plain.multicoreMIPS)))),
	)
	for _, name := range specSet {
		ms = append(ms, one("fig5.err_pct."+name, "%", 0))
	}
	return ms
}

func (b *sweepBench) probe(tr *tracer) probeResult {
	var groups [][][]isa.Inst
	for _, name := range sweepProfiles {
		groups = append(groups, [][]isa.Inst{tr.record(workload.New(workload.SPECByName(name), 0, 1, b.seed), probeInsts, 0)})
	}
	var mix, can [][]isa.Inst
	for i, name := range sweepMix {
		mix = append(mix, tr.record(workload.NewSlot(workload.SPECByName(name), 0, 1, b.seed+int64(i), i), probeInsts, 0))
	}
	cp := workload.PARSECByName("canneal")
	for i := 0; i < 4; i++ {
		can = append(can, tr.record(workload.New(cp, i, 4, b.seed), probeInsts, 0))
	}
	return runProbes(tr, append(groups, mix, can))
}
