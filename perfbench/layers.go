package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/multicore"
	"repro/internal/obs"
	"repro/internal/simrun"
	"repro/internal/trace"
)

// tracer keeps the traced run's spans in memory, each with the span that
// caused it, plus the counters taken at the same layer boundaries. A nil
// *tracer is the untraced run: every method is a no-op.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	runs  []runRec
	batch []batchRec

	genNS, genInsts         atomic.Int64 // workload.Generator.NextBatch, through timed wrappers
	recNS, recInsts, recCap atomic.Int64 // trace.Record
}

type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Start  float64          `json:"start_s"`
	Dur    float64          `json:"dur_s"`
	Args   map[string]int64 `json:"args,omitempty"`
	Label  string           `json:"label,omitempty"`
}

// runRec is one scenario run as its simrun and multicore spans saw it.
type runRec struct {
	engine, model string
	threads       int
	runS          float64 // the engine:<name> span
	warmupS       float64 // the multicore warmup span (0 for estimates)
	waitS         float64 // queued before the run started
}

// batchRec is one group of scenario runs sharing a queue: a simrun.Batch
// call, or one serial pass of single-threaded runs.
type batchRec struct {
	workers int
	wallS   float64
	busyS   float64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 when untraced).
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.t0).Seconds()})
	return len(t.spans)
}

// end closes span id, attaching label and args.
func (t *tracer) end(id int, label string, args map[string]int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.Dur = time.Since(t.t0).Seconds() - s.Start
	s.Label, s.Args = label, args
}

// startS is the start of span id in seconds since the tracer began.
func (t *tracer) startS(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].Start
}

// observe attaches a fresh span tracer to sc, so the spans simrun and
// the multicore driver record for this run can be adopted afterwards.
func (t *tracer) observe(sc *simrun.Scenario) {
	if t != nil {
		sc.SetObserver(&obs.Observer{Tracer: obs.NewTracer(0)})
	}
}

// adopt moves the simrun and multicore spans of sc's last run under parent, records the
// run, and returns the duration of its engine span in seconds. queuedAt
// is when the run was handed to its queue, in seconds since the tracer
// began.
func (t *tracer) adopt(sc *simrun.Scenario, parent int, queuedAt float64) float64 {
	if t == nil {
		return 0
	}
	ot := sc.Observer().ObsTracer()
	off := ot.Since(t.t0) // observer clock reading at t.t0, in µs
	rec := runRec{engine: sc.EngineName(), model: sc.ModelName(), threads: sc.Threads()}
	spans := ot.Spans()
	t.mu.Lock()
	defer t.mu.Unlock()
	// The engine span encloses the run; the multicore warmup and measure
	// spans become its children.
	first := -1.0
	runID := parent
	for _, s := range spans {
		if s.Name == "engine:"+rec.engine {
			first = float64(s.StartUS-off) / 1e6
			rec.runS = float64(s.DurUS) / 1e6
			t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: s.Name, Start: first, Dur: rec.runS, Args: s.Args, Label: sc.Name()})
			runID = len(t.spans)
		}
	}
	for _, s := range spans {
		if s.Name == "engine:"+rec.engine {
			continue
		}
		d := float64(s.DurUS) / 1e6
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: runID, Name: s.Name, Start: float64(s.StartUS-off) / 1e6, Dur: d, Args: s.Args, Label: sc.Name()})
		if s.Name == "warmup" {
			rec.warmupS += d
		}
	}
	if first >= 0 {
		rec.waitS = first - queuedAt
	}
	t.runs = append(t.runs, rec)
	return rec.runS
}

func (t *tracer) addBatch(workers int, wallS float64, busyS float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.batch = append(t.batch, batchRec{workers: workers, wallS: wallS, busyS: busyS})
	t.mu.Unlock()
}

// timed wraps a generator so the time spent in its NextBatch calls is
// counted; untraced runs get the stream back unchanged.
func (t *tracer) timed(s trace.Stream) trace.Stream {
	if t == nil {
		return s
	}
	return &timedStream{src: trace.Batched(s), t: t}
}

type timedStream struct {
	src trace.BatchStream
	t   *tracer
}

func (s *timedStream) Next() (isa.Inst, bool) {
	var b [1]isa.Inst
	if s.NextBatch(b[:]) == 0 {
		return isa.Inst{}, false
	}
	return b[0], true
}

func (s *timedStream) NextBatch(buf []isa.Inst) int {
	t0 := time.Now()
	n := s.src.NextBatch(buf)
	s.t.genNS.Add(int64(time.Since(t0)))
	s.t.genInsts.Add(int64(n))
	return n
}

// record is trace.Record of n instructions of src, timed and counted in
// traced runs.
func (t *tracer) record(src trace.Stream, n, parent int) []isa.Inst {
	if t == nil {
		return trace.Record(src, n)
	}
	id := t.start("trace.Record", parent)
	t0 := time.Now()
	rec := trace.Record(t.timed(src), n)
	t.recNS.Add(int64(time.Since(t0)))
	t.recInsts.Add(int64(len(rec)))
	t.recCap.Add(int64(cap(rec)))
	t.end(id, "", map[string]int64{"insts": int64(len(rec))})
	return rec
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(map[string]any{"clock": "seconds since the traced run began", "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// runLayers turns the recorded runs, batches and boundary counters into
// the per-layer metrics every workload reports.
func (t *tracer) runLayers(fullModel string) []metric {
	var full, warm, wait []float64
	for _, r := range t.runs {
		wait = append(wait, r.waitS)
		if r.engine == simrun.DefaultEngine && r.model == fullModel {
			full = append(full, r.runS)
			warm = append(warm, r.warmupS)
		}
	}
	var busy, capacity float64
	for _, b := range t.batch {
		busy += b.busyS
		capacity += float64(b.workers) * b.wallS
	}
	return []metric{
		one("workload.ns_per_inst", "ns", ratio(float64(t.genNS.Load()), float64(t.genInsts.Load()))),
		one("trace.record_s", "s", float64(t.recNS.Load())/1e9),
		one("trace.bytes_per_inst", "B", ratio(float64(t.recCap.Load())*float64(unsafe.Sizeof(isa.Inst{})), float64(t.recInsts.Load()))),
		one("engine.full_s_p50", "s", percentile(full, 50)),
		one("engine.full_s_p75", "s", percentile(full, 75)),
		one("multicore.warmup_s", "s", mean(warm)),
		one("simrun.queue_wait_s", "s", mean(wait)),
		one("simrun.batch_busy_frac", "fraction", ratio(busy, capacity)),
	}
}

// engineTimes are the engine-span durations of the runs on engine with
// the given thread count.
func (t *tracer) engineTimes(engine string, threads int) []float64 {
	var out []float64
	for _, r := range t.runs {
		if r.engine == engine && r.threads == threads {
			out = append(out, r.runS)
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// runtimeStats are process-wide runtime counters.
type runtimeStats struct {
	allocs    float64 // heap objects allocated
	gcCPU     float64 // CPU seconds spent in the garbage collector
	activeCPU float64 // CPU seconds the process's Go threads were busy
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeStats{
		allocs:    float64(s[0].Value.Uint64()),
		gcCPU:     s[1].Value.Float64(),
		activeCPU: s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

func (r runtimeStats) since(o runtimeStats) runtimeStats {
	return runtimeStats{allocs: r.allocs - o.allocs, gcCPU: r.gcCPU - o.gcCPU, activeCPU: r.activeCPU - o.activeCPU}
}

// probeResult holds what the isolation probes measured, plus the runtime
// counters of the untraced window.
type probeResult struct {
	branchNS    float64
	predicts    uint64
	mispredicts uint64
	branchInsts uint64
	memNS       float64
	accesses    uint64
	runtime     runtimeStats
}

func (pr probeResult) metrics(simInsts uint64) []metric {
	return []metric{
		one("branch.ns_per_predict", "ns", ratio(pr.branchNS, float64(pr.predicts))),
		one("branch.mpki", "1/kinst", ratio(1000*float64(pr.mispredicts), float64(pr.branchInsts))),
		one("memhier.ns_per_access", "ns", ratio(pr.memNS, float64(pr.accesses))),
		one("runtime.allocs_per_kinst", "count", ratio(1000*pr.runtime.allocs, float64(simInsts))),
		one("runtime.gc_cpu_frac", "fraction", ratio(pr.runtime.gcCPU, pr.runtime.activeCPU)),
	}
}

// probeWarm instructions of each probed stream warm the probe's branch
// unit and memory hierarchy before the timed calls begin.
const probeWarm = 100_000

// runProbes replays recorded streams through branch.Unit.Predict and
// memhier.Hierarchy.Inst/Data outside the core models, which take their
// branch unit and hierarchy concretely and so cannot be wrapped. Each
// group is a set of per-core streams probed on one machine of that many
// cores; multicore.Warmup warms both structures on the first probeWarm
// instructions of each stream, and the timed calls replay the rest.
func runProbes(t *tracer, groups [][][]isa.Inst) probeResult {
	var pr probeResult
	pid := t.start("probe", 0)
	defer t.end(pid, "", nil)
	for _, g := range groups {
		m := config.Default(len(g))
		h := memhier.New(len(g), m.Mem, memhier.Perfect{})
		bps := make([]*branch.Unit, len(g))
		warm := make([]trace.Stream, len(g))
		for i, rec := range g {
			bps[i] = branch.NewUnit(m.Branch)
			w, _ := split(rec)
			warm[i] = trace.NewSliceStream(w)
		}
		wid := t.start("multicore.Warmup", pid)
		multicore.Warmup(h, bps, warm, probeWarm)
		t.end(wid, "", nil)

		bid := t.start("branch.Unit.Predict", pid)
		var n uint64
		for i, rec := range g {
			_, rest := split(rec)
			var br []isa.Inst
			for _, in := range rest {
				if in.Class.IsBranch() {
					br = append(br, in)
				}
			}
			t0 := time.Now()
			for j := range br {
				bps[i].Predict(&br[j])
			}
			pr.branchNS += float64(time.Since(t0))
			pr.mispredicts += bps[i].Mispredictions
			pr.branchInsts += uint64(len(rest))
			n += uint64(len(br))
		}
		pr.predicts += n
		t.end(bid, "", map[string]int64{"predicts": int64(n)})

		acc := accessList(g, uint64(m.Mem.L1I.LineSize))
		mid := t.start("memhier.Hierarchy.Inst/Data", pid)
		t0 := time.Now()
		for i := range acc {
			a := &acc[i]
			switch a.kind {
			case fetch:
				h.Inst(int(a.core), a.addr, a.now)
			case load:
				h.Data(int(a.core), a.addr, false, a.now)
			default:
				h.Data(int(a.core), a.addr, true, a.now)
			}
		}
		pr.memNS += float64(time.Since(t0))
		pr.accesses += uint64(len(acc))
		t.end(mid, "", map[string]int64{"accesses": int64(len(acc))})
	}
	return pr
}

func split(rec []isa.Inst) (warm, rest []isa.Inst) {
	w := min(probeWarm, len(rec))
	return rec[:w], rec[w:]
}

const (
	fetch = iota
	load
	store
)

type access struct {
	addr uint64
	now  int64 // the instruction's position in its stream: one cycle per instruction
	core int32
	kind uint8
}

// probeChunk instructions of one core are replayed before the next core's,
// round robin, so a multi-core group's shared structures see the cores'
// traffic interleaved.
const probeChunk = 64

// accessList flattens the post-warm part of each core's stream into the
// hierarchy calls a front end and a load/store unit would make: one fetch
// per new instruction line, one data access per load or store.
// Synchronization instructions touch no memory, as in functional warmup.
func accessList(g [][]isa.Inst, lineSize uint64) []access {
	var out []access
	pos := make([]int, len(g))
	last := make([]uint64, len(g))
	for i := range last {
		last[i] = ^uint64(0)
	}
	for live := true; live; {
		live = false
		for c, rec := range g {
			_, rest := split(rec)
			end := min(pos[c]+probeChunk, len(rest))
			for ; pos[c] < end; pos[c]++ {
				in := &rest[pos[c]]
				if in.Class.IsSync() {
					continue
				}
				now := int64(pos[c])
				if line := in.PC / lineSize; line != last[c] {
					last[c] = line
					out = append(out, access{addr: in.PC, now: now, core: int32(c), kind: fetch})
				}
				switch in.Class {
				case isa.Load:
					out = append(out, access{addr: in.Addr, now: now, core: int32(c), kind: load})
				case isa.Store:
					out = append(out, access{addr: in.Addr, now: now, core: int32(c), kind: store})
				}
			}
			if pos[c] < len(rest) {
				live = true
			}
		}
	}
	return out
}
