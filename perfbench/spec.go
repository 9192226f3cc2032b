package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"repro/internal/isa"
	"repro/internal/simrun"
	"repro/internal/trace"
	"repro/internal/workload"
)

// specSet is the 8-profile SPEC CPU2000 set of cmd/bench: five integer
// profiles (branchy, pointer-chasing) and three floating-point ones
// (streaming, chained).
var specSet = []string{"gcc", "vpr", "twolf", "parser", "mcf", "swim", "mesa", "art"}

const (
	// specInsts is the measured budget per profile. Interval-vs-detailed
	// error has converged by 2M instructions; at 1M twolf and art still
	// move by several points.
	specInsts = 2_000_000
	// specWarmup instructions of a twin stream functionally warm each run.
	specWarmup = 200_000
	// warmSeedOffset is the seed distance of simrun's warmup twins. The
	// replay workload records the twin itself, and its replay-versus-
	// generated check fails if the two ever disagree.
	warmSeedOffset = 1000
	// detailedPerPass detailed runs follow each interval pass, so the
	// detailed model's one pass over the set is spread across the window.
	detailedPerPass = 2
	// setupWarmInsts is the size of the untimed warm-up run of each
	// profile at the end of set-up.
	setupWarmInsts = 100_000
	// probeInsts instructions of each stream feed the isolation probes.
	probeInsts = 500_000
)

// specBench is the spec-generated and spec-replay workload: the SPEC set
// on the interval model (the headline) and on the detailed model (the
// reference of Figs 5 and 9), with streams generated inside the timed
// runs or recorded during set-up and replayed.
type specBench struct {
	seed      int64
	generated bool
	profiles  []*workload.Profile
	rec, wrec [][]isa.Inst // replay: measured and warmup recordings
}

func (b *specBench) setup(e *env, tr *tracer) {
	b.profiles = b.profiles[:0]
	for _, name := range specSet {
		b.profiles = append(b.profiles, workload.SPECByName(name))
	}
	if !b.generated {
		// Drop the previous set-up's recordings before making new ones,
		// so peak memory holds one set, not several.
		b.rec, b.wrec = nil, nil
		runtime.GC()
		sid := tr.start("setup", 0)
		for _, p := range b.profiles {
			b.rec = append(b.rec, tr.record(workload.New(p, 0, 1, b.seed), specInsts, sid))
			b.wrec = append(b.wrec, tr.record(workload.New(p, 0, 1, b.seed+warmSeedOffset), specWarmup, sid))
		}
		tr.end(sid, "", nil)
	}
	// Untimed warm-up: one short interval run per profile, so the first
	// timed pass does not pay for first-touch page faults and heap growth.
	for k := range b.profiles {
		sc, err := b.scenario(k, "interval", setupWarmInsts, nil)
		if e.op(err) {
			_, err = sc.Run(context.Background())
			e.op(err)
		}
	}
}

// scenario builds the run of profile k under model with an n-instruction
// budget. Generated runs go through simrun's own stream construction,
// except in the traced run, which builds the same streams itself to put a
// timer around the generator; the traced-versus-untraced digest check
// proves the two identical.
func (b *specBench) scenario(k int, model string, n int, tr *tracer) (*simrun.Scenario, error) {
	p := b.profiles[k]
	opts := []simrun.Option{simrun.Model(model), simrun.Warmup(min(specWarmup, n/5)), simrun.KeepCores(), simrun.Label(p.Name)}
	switch {
	case !b.generated:
		opts = append(opts, simrun.Streams(
			[]trace.Stream{trace.NewSliceStream(b.rec[k][:n])},
			[]trace.Stream{trace.NewSliceStream(b.wrec[k])}))
	case tr != nil:
		opts = append(opts, simrun.Streams(
			[]trace.Stream{trace.NewLimit(tr.timed(workload.New(p, 0, 1, b.seed)), n)},
			[]trace.Stream{tr.timed(workload.New(p, 0, 1, b.seed+warmSeedOffset))}))
	default:
		opts = append(opts, simrun.Insts(n), simrun.Seed(b.seed))
	}
	return simrun.New(p.Name, opts...)
}

// specRun is one scenario run: its simulated statistics and host cost.
type specRun struct {
	sim  sim
	cpu  time.Duration
	runS float64 // the run's engine span, traced runs only
}

// run executes profile k under model once, checks its output, and returns
// it. Runs are labelled by model in the CPU profile.
func (b *specBench) run(e *env, k int, model string, tr *tracer, parent int, queuedAt float64) (specRun, bool) {
	sc, err := b.scenario(k, model, specInsts, tr)
	if !e.op(err) {
		return specRun{}, false
	}
	tr.observe(sc)
	var res simrun.Result
	c0 := cpuTime()
	inSegment(model, func() { res, err = sc.Run(context.Background()) })
	cpu := cpuTime() - c0
	e.sampleHeap()
	runS := tr.adopt(sc, parent, queuedAt)
	if !e.op(err) {
		return specRun{runS: runS}, false
	}
	r := specRun{sim: simOf(res), cpu: cpu, runS: runS}
	e.check(r.sim.retired == specInsts && r.sim.cycles > 0, "%s/%s: retired %d instructions in %d cycles, want %d instructions",
		specSet[k], model, r.sim.retired, r.sim.cycles, specInsts)
	return r, true
}

// specPhase is one measurement window of a SPEC workload.
type specPhase struct {
	b                  *specBench
	intervalMIPS       []float64 // per interval pass
	answers            []float64 // interval runs per wall second, per pass
	detInsts, intInsts uint64
	detCPU             time.Duration
	interval, detailed map[int]sim       // first result per profile
	perProfile         map[int][]float64 // interval ns/inst samples
	tr                 *tracer
}

func (b *specBench) measure(e *env, tr *tracer) phase {
	ph := &specPhase{b: b, tr: tr, interval: map[int]sim{}, detailed: map[int]sim{}, perProfile: map[int][]float64{}}
	wid := tr.start("window", 0)
	defer tr.end(wid, "", nil)
	deadline := time.Now().Add(e.window)
	next := 0 // next profile due a detailed run
	for pass := 0; next < len(b.profiles) || time.Now().Before(deadline); pass++ {
		pid := tr.start("interval pass", wid)
		w0 := time.Now()
		var insts uint64
		var cpu time.Duration
		var busy float64
		for k := range b.profiles {
			r, ok := b.run(e, k, "interval", tr, pid, tr.startS(pid))
			busy += r.runS
			if !ok {
				continue
			}
			insts += r.sim.retired
			cpu += r.cpu
			ph.perProfile[k] = append(ph.perProfile[k], float64(r.cpu.Nanoseconds())/float64(r.sim.retired))
			if first, seen := ph.interval[k]; seen {
				e.check(first == r.sim, "%s/interval: pass %d simulated differently from pass 0 (%s vs %s)", specSet[k], pass, r.sim, first)
			} else {
				ph.interval[k] = r.sim
			}
		}
		wall := time.Since(w0)
		tr.addBatch(1, wall.Seconds(), busy)
		tr.end(pid, "", map[string]int64{"insts": int64(insts)})
		ph.intInsts += insts
		if cpu > 0 {
			ph.intervalMIPS = append(ph.intervalMIPS, float64(insts)/cpu.Seconds()/1e6)
			ph.answers = append(ph.answers, float64(len(b.profiles))/wall.Seconds())
		}
		for j := 0; j < detailedPerPass && next < len(b.profiles); j++ {
			did := tr.start("detailed run", wid)
			if r, ok := b.run(e, next, "detailed", tr, did, tr.startS(did)); ok {
				ph.detailed[next] = r.sim
				ph.detInsts += r.sim.retired
				ph.detCPU += r.cpu
			}
			tr.end(did, specSet[next], nil)
			next++
		}
	}
	return ph
}

// verify reruns each replayed profile through simrun's own
// generated-stream path and requires the replayed interval run to have
// simulated exactly the same machine behaviour.
func (b *specBench) verify(e *env, p phase) {
	ph := p.(*specPhase)
	if b.generated {
		return
	}
	for k, p := range b.profiles {
		sc, err := simrun.New(p.Name, simrun.Insts(specInsts), simrun.Warmup(specWarmup), simrun.Seed(b.seed), simrun.KeepCores())
		if !e.op(err) {
			continue
		}
		res, err := sc.Run(context.Background())
		if !e.op(err) {
			continue
		}
		g := simOf(res)
		e.check(g == ph.interval[k], "%s: replayed interval run differs from the generated run (%s vs %s)", p.Name, ph.interval[k], g)
	}
}

// ipcErr returns the per-profile |IPC_interval - IPC_detailed| /
// IPC_detailed in percent, for profiles with both runs.
func (ph *specPhase) ipcErr() map[int]float64 {
	out := map[int]float64{}
	for k, d := range ph.detailed {
		i, ok := ph.interval[k]
		if !ok || d.ipc() == 0 {
			continue
		}
		out[k] = 100 * math.Abs(i.ipc()-d.ipc()) / d.ipc()
	}
	return out
}

// detailedMIPS is the detailed model's speed over its pass.
func (ph *specPhase) detailedMIPS() float64 {
	return ratio(float64(ph.detInsts), ph.detCPU.Seconds()*1e6)
}

// fig5 returns the average and worst per-profile IPC error.
func (ph *specPhase) fig5() (avg, worst float64) {
	var sum float64
	errs := ph.ipcErr()
	for _, v := range errs {
		sum += v
		worst = math.Max(worst, v)
	}
	return ratio(sum, float64(len(errs))), worst
}

func (ph *specPhase) endToEnd() []metric {
	errs := ph.ipcErr()
	for k := range ph.b.profiles {
		if v, ok := errs[k]; ok {
			fmt.Printf("  fig5 %-8s interval IPC %.4f detailed IPC %.4f error %.2f%%\n", specSet[k], ph.interval[k].ipc(), ph.detailed[k].ipc(), v)
		}
	}
	avg, worst := ph.fig5()
	fmt.Printf("  ipc_err_avg_pct %.4f %%, ipc_err_max_pct %.4f %% (simulated, exact for a seed)\n", avg, worst)
	return []metric{
		{name: "interval_mips", unit: "MIPS", samples: ph.intervalMIPS},
		one("ref_mips", "MIPS", ph.detailedMIPS()),
		{name: "answers_per_s", unit: "1/s", samples: ph.answers},
	}
}

func (ph *specPhase) digest() string {
	h := fnv.New64a()
	for k := range ph.b.profiles {
		fmt.Fprintf(h, "%s interval %s\n%s detailed %s\n", specSet[k], ph.interval[k], specSet[k], ph.detailed[k])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func (ph *specPhase) layers(pr probeResult, prof *profile, untraced phase) []metric {
	plain := untraced.(*specPhase)
	var s sim
	for k := range ph.b.profiles {
		s.add(ph.interval[k])
	}
	ms := ph.tr.runLayers("interval")
	ms = append(ms, pr.metrics(plain.intInsts+plain.detInsts)...)
	ms = append(ms, s.metrics()...)
	ms = append(ms,
		one("core.ns_per_inst", "ns", ratio(prof.layerNS("interval", "core"), float64(ph.intInsts))),
		one("engine.cost_ratio", "x", 0),
		one("engine.tier_err_avg_pct", "%", 0),
		one("engine.tier_err_max_pct", "%", 0),
		one("fig9.speedup_vs_detailed", "x", ratio(median(plain.intervalMIPS), plain.detailedMIPS())),
		one("obs.trace_overhead_pct", "%", 100*(1-ratio(median(ph.intervalMIPS), median(plain.intervalMIPS)))),
	)
	avg, worst := plain.fig5()
	ms = append(ms, one("fig5.err_avg_pct", "%", avg), one("fig5.err_max_pct", "%", worst))
	errs := plain.ipcErr()
	for k := range ph.b.profiles {
		ms = append(ms, one("fig5.err_pct."+specSet[k], "%", errs[k]))
	}
	fmt.Printf("  ooo.ns_per_inst %.1f ns (detailed model self time per instruction)\n", ratio(prof.layerNS("detailed", "ooo"), float64(ph.detInsts)))
	for k := range ph.b.profiles {
		fmt.Printf("  interval %-8s %.1f ns/inst (whole run, median of %d)\n", specSet[k], median(ph.perProfile[k]), len(ph.perProfile[k]))
	}
	return ms
}

func (b *specBench) probe(tr *tracer) probeResult {
	var groups [][][]isa.Inst
	for k, p := range b.profiles {
		rec := func() []isa.Inst {
			if !b.generated {
				return b.rec[k][:probeInsts]
			}
			return tr.record(workload.New(p, 0, 1, b.seed), probeInsts, 0)
		}()
		groups = append(groups, [][]isa.Inst{rec})
	}
	return runProbes(tr, groups)
}
