// Command perfbench is the repository benchmark. It measures the interval
// simulator end to end on three workloads — host speed, set-up time,
// memory and the paper's accuracy claims — and, in a separate traced run,
// attributes host time to the simulator's layers. README.md holds the
// metric catalog, the layer-to-metric map and the reason for each
// workload.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload spec-replay --seed 42 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, with --trace 1 the per-layer ones. The lines
// before it are a human-readable report: each metric with its median,
// quartiles and sample count, and a digest of the simulated statistics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// The default workload seed, and the held-out seed on which any gain
// claimed with this benchmark must also hold.
const (
	defaultSeed = 42
	heldOutSeed = 7919
)

// setupReps is how many times each workload builds its inputs; setup_s
// is the median.
const setupReps = 3

// A workload is one set of inputs the benchmark runs. setup builds the
// inputs from the seed (the last call's inputs are kept); measure runs
// passes until the window closes; probe runs the isolation probes of the
// traced run. A non-nil tracer makes each of them record spans.
type workloadDef struct {
	name string
	why  string
	make func(seed int64) bench
}

type bench interface {
	setup(e *env, tr *tracer)
	measure(e *env, tr *tracer) phase
	// verify runs output checks that need more simulation than a window
	// does; it runs after the untraced window, outside all timing.
	verify(e *env, ph phase)
	probe(tr *tracer) probeResult
}

// phase is what one measure window produced: timing samples per metric,
// the simulated statistics of its runs, and the per-layer inputs the
// traced run needs.
type phase interface {
	endToEnd() []metric
	layers(pr probeResult, prof *profile, untraced phase) []metric
	digest() string
}

var workloads = []workloadDef{
	{
		name: "spec-generated",
		why:  "the synthetic workload generator runs inside the timed loop, so generator changes show here first",
		make: func(seed int64) bench { return &specBench{seed: seed, generated: true} },
	},
	{
		name: "spec-replay",
		why:  "streams are recorded during set-up and replayed, so the generator does no timed work; interval and detailed models run for Figs 5 and 9",
		make: func(seed int64) bench { return &specBench{seed: seed} },
	},
	{
		name: "design-sweep",
		why:  "adaptive two-phase sweep through simrun.Batch: statistical estimates, then full-fidelity points including 4-core shared-memory runs",
		make: func(seed int64) bench { return &sweepBench{seed: seed} },
	},
}

// env carries one run's settings, its failure accounting and its peak
// live heap.
type env struct {
	seed      int64
	window    time.Duration
	attempted int
	failed    int
	heapPeak  float64 // MiB
}

// sampleHeap runs a full collection and records the live heap. It is
// called outside all timing, after set-up and after every scenario run
// while the run's result — with its cores and memory hierarchy — is still
// held, so the peak covers both the inputs and the simulator's own state.
// Unlike the process's peak resident set, it does not depend on when the
// collector happened to run.
func (e *env) sampleHeap() {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	e.heapPeak = max(e.heapPeak, float64(s[0].Value.Uint64())/(1<<20))
}

// op counts one attempted operation and, when err is non-nil, one
// failure, reported on standard error.
func (e *env) op(err error) bool {
	e.attempted++
	if err != nil {
		e.failed++
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", err)
		return false
	}
	return true
}

// check counts one output check; ok=false is a failure described by the
// format arguments.
func (e *env) check(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf(format, args...)
	}
	e.op(err)
}

// metric is one named measurement. samples holds the per-pass values
// whose median is reported; a single-valued metric has one sample.
type metric struct {
	name    string
	unit    string
	samples []float64
}

func one(name, unit string, v float64) metric {
	return metric{name: name, unit: unit, samples: []float64{v}}
}

func (m metric) value() float64 { return median(m.samples) }

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	wname := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (default %d; gain claims must also hold on the held-out seed %d)", defaultSeed, heldOutSeed))
	seconds := flag.Int("seconds", 25, "length of the measurement window in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory the span trace of a traced run is written to")
	flag.Parse()

	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *wname {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {%s}, --seconds >= 1 and --trace 0|1\n", strings.Join(names, ","))
		os.Exit(2)
	}
	e := &env{seed: *seed, window: time.Duration(*seconds) * time.Second}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d go=%s gomaxprocs=%d\n",
		def.name, *seed, *seconds, *traced, runtime.Version(), runtime.GOMAXPROCS(0))
	fmt.Printf("  why: %s\n", def.why)

	b := def.make(*seed)
	var tr *tracer
	if *traced == 1 {
		tr = newTracer()
	}
	var setup []float64
	for i := 0; i < setupReps; i++ {
		st := tr // only the kept inputs' set-up is traced
		if i < setupReps-1 {
			st = nil
		}
		c0 := cpuTime()
		b.setup(e, st)
		setup = append(setup, (cpuTime() - c0).Seconds())
		e.sampleHeap()
	}

	var metrics []metric
	if *traced == 0 {
		ph := b.measure(e, nil)
		b.verify(e, ph)
		fmt.Printf("  digest %s\n", ph.digest())
		fmt.Printf("  peak resident set %.1f MB\n", peakRSSMB())
		metrics = append(ph.endToEnd(),
			metric{name: "setup_s", unit: "s", samples: setup},
			one("peak_heap_mb", "MB", e.heapPeak))
	} else {
		metrics = tracedRun(b, e, tr, def.name, *out)
	}
	report(metrics)
	res := result{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metricValue{}}
	fmt.Printf("  error_rate %g (%d failed of %d attempted)\n", float64(e.failed)/float64(max(e.attempted, 1)), e.failed, e.attempted)
	for _, m := range metrics {
		res.Metrics[m.name] = metricValue{Value: m.value(), Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// tracedRun is the --trace 1 run: an untraced window (the reference for
// the tracing overhead and the source of the runtime counters), a traced
// window under the CPU profiler, the isolation probes and the
// traced-versus-untraced output check. The spans are written to dir.
func tracedRun(b bench, e *env, tr *tracer, name, dir string) []metric {
	rt0 := readRuntime()
	plain := b.measure(e, nil)
	rt := readRuntime().since(rt0)
	b.verify(e, plain)

	prof := newProfile()
	traced := func() phase {
		prof.start()
		defer prof.stop()
		return b.measure(e, tr)
	}()
	e.check(traced.digest() == plain.digest(), "%s: traced run simulated differently from the untraced run (%s vs %s)", name, traced.digest(), plain.digest())
	fmt.Printf("  digest %s\n", plain.digest())
	pr := b.probe(tr)
	pr.runtime = rt

	ms := traced.layers(pr, prof, plain)
	ms = append(ms, prof.shares()...)
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", name, e.seed))
	if err := tr.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing the span trace:", err)
	} else {
		fmt.Printf("  spans written to %s\n", path)
	}
	return ms
}

// report prints every metric with its median, quartiles and sample count.
func report(ms []metric) {
	for _, m := range ms {
		if len(m.samples) == 1 {
			fmt.Printf("  %-34s %14.6g %-8s\n", m.name, m.value(), m.unit)
			continue
		}
		q1, q3 := quartiles(m.samples)
		fmt.Printf("  %-34s %14.6g %-8s [q1 %.6g, q3 %.6g, n=%d]\n", m.name, m.value(), m.unit, q1, q3, len(m.samples))
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive method
// (Python's statistics.quantiles default), or the value itself for fewer
// than two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile returns the p-th percentile (0..100) by linear interpolation.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
