package workload

import (
	"fmt"
	"hash/fnv"

	"repro/internal/isa"
)

// Static-program machinery: a Profile expands into a synthetic control-flow
// graph (functions of basic blocks with loop/biased/random branch sites and
// call edges). The generator then *interprets* this CFG, so instruction PCs
// repeat exactly the way real code repeats — hot loops touch few I-cache
// lines and train the branch predictor, cold paths do not.

type siteKind uint8

const (
	siteLoop siteKind = iota
	siteBiased
	siteRandom
)

type branchSite struct {
	kind   siteKind
	trip   int    // loop trip count
	cut    uint64 // taken threshold (probCut) for biased/random sites
	target int    // taken-target block index within the function
	count  int    // dynamic state: iterations since last exit
}

type block struct {
	startPC uint64
	bodyLen int // instructions before the terminator
	// Terminator: term==termCall jumps to callee; term==termRet pops;
	// term==termBranch consults the site.
	term   uint8
	site   int // index into function's sites for termBranch
	callee int // function index for termCall
}

const (
	termBranch = iota
	termCall
	termRet
)

type function struct {
	blocks []block
	sites  []branchSite
	entry  uint64 // entry PC
}

type program struct {
	funcs    []function
	codeSize uint64
}

// buildProgram synthesizes the static CFG for a profile. base is the code
// base address; kernel programs live at a distant base so user and system
// code do not share I-cache lines. blen and trip are the profile's
// tabulated block-length and loop-trip samplers (v3: alias tables replace
// the inverse-transform math.Log draws).
func buildProgram(p *Profile, rng *fastRand, blen, trip *aliasGeom, base uint64, funcs, blocksPerFunc int) *program {
	prog := &program{}
	pc := base
	for f := 0; f < funcs; f++ {
		var fn function
		for b := 0; b < blocksPerFunc; b++ {
			bl := block{startPC: pc}
			bl.bodyLen = 1 + blen.sample(rng)
			pc += uint64(bl.bodyLen+1) * 4

			switch {
			case b == blocksPerFunc-1:
				bl.term = termRet
			case funcs > 1 && rng.Float64() < callFrac(p):
				bl.term = termCall
				bl.callee = rng.Intn(funcs)
			default:
				bl.term = termBranch
				bl.site = len(fn.sites)
				fn.sites = append(fn.sites, makeSite(p, rng, trip, b, blocksPerFunc))
			}
			fn.blocks = append(fn.blocks, bl)
		}
		fn.entry = fn.blocks[0].startPC
		prog.funcs = append(prog.funcs, fn)
	}
	prog.codeSize = pc - base
	return prog
}

// callFrac converts the profile's call mix into a per-block probability.
func callFrac(p *Profile) float64 {
	if p.Mix.Branch <= 0 {
		return 0
	}
	return p.Mix.Call
}

func makeSite(p *Profile, rng *fastRand, trip *aliasGeom, blockIdx, nBlocks int) branchSite {
	r := rng.Float64()
	switch {
	case r < p.LoopFrac && blockIdx > 0:
		t := 2 + trip.sample(rng)
		// Back edge to a nearby earlier block.
		back := blockIdx - 1 - rng.Intn(min(blockIdx, 4))
		return branchSite{kind: siteLoop, trip: t, target: back}
	case r < p.LoopFrac+p.BiasedFrac:
		return branchSite{kind: siteBiased, cut: probCut(p.BiasedProb), target: fwdTarget(rng, blockIdx, nBlocks)}
	default:
		return branchSite{kind: siteRandom, cut: probCut(p.RandomProb), target: fwdTarget(rng, blockIdx, nBlocks)}
	}
}

func fwdTarget(rng *fastRand, blockIdx, nBlocks int) int {
	if blockIdx+2 >= nBlocks {
		return nBlocks - 1
	}
	return blockIdx + 1 + rng.Intn(nBlocks-blockIdx-1)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// staticSeed derives the static-program seed from the profile name, so the
// synthetic "binary" is a property of the benchmark alone.
func staticSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64() & 0x7FFFFFFFFFFFFFFF)
}

// fastRand is a sequential splitmix64 PRNG. Since v3 it drives only the
// off-hot-path draws that never need jump-ahead: static program
// construction (a property of the profile name) and the synchronization
// schedule of multi-threaded profiles (which pins those streams to
// sequential generation anyway — see Skippable). The dynamic
// per-instruction draws use the counter-based ctrRand.
type fastRand struct{ s uint64 }

func newFastRand(seed int64) *fastRand { return &fastRand{s: uint64(seed)} }

func (r *fastRand) next() uint64 {
	r.s += splitmixGamma
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *fastRand) Float64() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *fastRand) Intn(n int) int { return int(r.next() % uint64(n)) }

// frame is one call-stack entry of the interpreter.
type frame struct {
	fn    int
	block int
}

// regionState is the per-generator dynamic state of one working-set region.
type regionState struct {
	base   uint64
	cursor uint64
}

// StreamVersion is the stream-format generation this package produces.
// It changes only on a deliberate break of the bit-identical-stream
// guarantee (v2: multi-program copies at disjoint address-space slots;
// v3: counter-based RNG with chunked O(1) skip-ahead and tabulated
// geometric draws — every stream renumbered). Consumers that persist
// streams or stream-derived results (the trace file header, the simrun
// scenario fingerprint) record it so artifacts of one generation are
// never mixed with another's; the break/bump procedure is documented in
// docs/formats.md.
const StreamVersion = 3

// ChunkLen is the v3 skip-ahead chunk length: every ChunkLen stream
// positions the generator's dynamic interpreter state (control flow,
// dataflow ring, region cursors) resets to a value derived purely from
// the chunk index, so SkipTo reaches any position by deriving the
// enclosing chunk's state in O(1) and replaying at most ChunkLen-1
// instructions. The resets are part of the v3 stream itself — skipping
// and straight generation produce byte-identical instructions.
const ChunkLen = 131072

// SlotStride is the address-space distance between two slots: slot k's
// code and data live exactly k*SlotStride above slot 0's. It is a power
// of two far above every cache's and TLB's index bits (so per-copy hit
// behaviour is slot-invariant) and far above the per-thread private-
// region offsets (threads scale to 1<<12 within a slot before two slots
// could touch), giving MaxSlots fully disjoint slots in the 64-bit space.
const SlotStride uint64 = 1 << 56

// MaxSlots is the number of disjoint address-space slots (2^64 /
// SlotStride). NewSlot rejects slots beyond it: slot k and slot
// k-MaxSlots would silently alias, breaking the no-cross-copy-sharing
// guarantee the slots exist for.
const MaxSlots = 256

// Generator interprets a profile's synthetic program and produces the
// dynamic instruction stream of one thread. It implements trace.Stream and
// is fully deterministic given (profile, thread, threads, seed, slot).
type Generator struct {
	p        *Profile
	rng      ctrRand   // counter-based: dynamic per-instruction draws
	syncRng  *fastRand // sequential: synchronization schedule only
	phaseKey uint64    // static per-profile key for phase-anchor draws
	user     *program
	kernel   *program
	thread   int
	threads  int
	slotBase uint64 // slot * SlotStride, added to every code/data base

	// Tabulated samplers and integer draw thresholds, precomputed so the
	// per-instruction path is table probes and compares (v3: no float
	// conversions, no math.Log).
	depDist    *aliasGeom // register dependence distances
	kernSeg    *aliasGeom // kernel segment lengths
	critLen    *aliasGeom // critical-section lengths (syncRng-driven)
	chainCut   uint64
	kernCut    uint64
	chaseCut   uint64
	cutLoad    uint64
	cutStore   uint64
	cutMul     uint64
	cutDiv     uint64
	cutFP      uint64
	regionCut  []uint64
	chunkStep  []uint64 // expected cursor advance per chunk, stride units
	writeCut   []uint64
	chainClass isa.Class

	// Interpreter state.
	inKernel  bool
	kernLeft  int
	cur       frame
	kcur      frame
	pos       int // next body instruction index within current block
	callStack []frame
	kstack    []frame
	nextReset uint64 // stream position of the next chunk-state reset

	// Register dataflow state. Values are iteration-local: the ring is
	// cleared on loop back-edges, and a designated accumulator register
	// carries the serial loop-carried chain, mirroring the structure of
	// real loop code (independent iterations plus accumulators).
	seq      uint64
	ring     [32]uint8 // recently written registers
	ringLen  int
	ringHead int
	nextDst  uint8
	lastLoad uint8 // dst register of the most recent load, RegNone if none

	// Memory state.
	regions    []regionState
	lastRegion int

	// Serializing/system bookkeeping.
	untilSerialize int

	// Multi-threading bookkeeping.
	budget        uint64 // remaining instructions; ^0 = unbounded
	initialBudget uint64
	sinceBarrier  uint64
	barrierAt     uint64 // emit a barrier when sinceBarrier reaches this
	untilLock     int
	critLeft      int // >0 while inside a critical section
	heldLock      uint16
	pendingSync   []isa.Inst

	// Statistics for tests.
	Emitted uint64
}

// New creates the stream generator for one thread of a profile. threads is
// the total thread count of the run (1 for single-threaded benchmarks);
// seed selects the deterministic instance. The stream lives in slot 0 of
// the address space; multi-program workloads that need disjoint copies
// use NewSlot.
func New(p *Profile, thread, threads int, seed int64) *Generator {
	return NewSlot(p, thread, threads, seed, 0)
}

// NewSlot is New with the stream instantiated at an address-space slot:
// every code and data base is offset by slot*SlotStride, and nothing
// else changes — the slot never enters a random draw, so the slot-k
// stream is bit-identical to the slot-0 stream with the constant offset
// added to PC, Target and Addr. Heterogeneous multi-program (Mix)
// workloads give each copy its own slot, so copies of different programs
// never alias cache lines in the shared hierarchy (no phantom coherence
// traffic).
func NewSlot(p *Profile, thread, threads int, seed int64, slot int) *Generator {
	return newSlotSalted(p, thread, threads, seed, slot, programSalt(p))
}

// newSlotSalted is NewSlot with an explicit static-program salt —
// the constructor the calibration probe uses to evaluate candidate
// program realizations without recursing through programSalt.
func newSlotSalted(p *Profile, thread, threads int, seed int64, slot int, salt uint64) *Generator {
	if slot < 0 || slot >= MaxSlots {
		panic(fmt.Sprintf("workload: slot %d out of range [0,%d) — slots beyond the range would alias address spaces", slot, MaxSlots))
	}
	if len(p.Regions) > 48 {
		panic(fmt.Sprintf("workload: profile %q has %d regions, more than the chunk-reset draw budget covers", p.Name, len(p.Regions)))
	}
	// The static program (CFG, branch sites, code layout) must be
	// identical across threads AND across seeds: it is the benchmark's
	// binary. Only the dynamic randomness (addresses, branch draws)
	// varies with the seed, so a warmup stream with a different seed
	// trains the same predictor sites and touches the same regions
	// without replaying the exact future line sequence.
	progRng := newFastRand(staticSeed(p.Name) ^ int64(salt*splitmixGamma))
	slotBase := uint64(slot) * SlotStride
	blockLen := p.BlockLenMean
	if blockLen <= 0 {
		if p.Mix.Branch > 0 {
			blockLen = 1/p.Mix.Branch - 1
		} else {
			blockLen = 16
		}
	}
	key := uint64(seed ^ int64(thread)*0x5E3779B97F4A7C15)
	blen := newAliasGeom(blockLen, geomTableSize(blockLen), 8)
	trip := newAliasGeom(p.LoopTripMean, geomTableSize(p.LoopTripMean), 8)
	g := &Generator{
		p:        p,
		rng:      ctrRand{key: key},
		syncRng:  newFastRand(seed ^ int64(thread)*0x5E3779B97F4A7C15),
		phaseKey: uint64(staticSeed(p.Name)),
		user:     buildProgram(p, progRng, blen, trip, slotBase+0x400000, p.Funcs, p.BlocksPerFunc),
		thread:   thread,
		threads:  threads,
		slotBase: slotBase,
		nextDst:  8,
		budget:   ^uint64(0),
	}
	g.initialBudget = g.budget
	if p.DepDistMean > 1 {
		// 64 outcomes cover every consumer: distances at or beyond the
		// 32-entry dataflow ring resolve to an ambient register.
		g.depDist = newAliasGeom(p.DepDistMean, 64, 1)
	}
	m := &p.Mix
	nonBranch := m.IntALU + m.IntMul + m.IntDiv + m.FP + m.Load + m.Store
	if nonBranch > 0 {
		g.cutLoad = probCut(m.Load / nonBranch)
		g.cutStore = probCut((m.Load + m.Store) / nonBranch)
		g.cutMul = probCut((m.Load + m.Store + m.IntMul) / nonBranch)
		g.cutDiv = probCut((m.Load + m.Store + m.IntMul + m.IntDiv) / nonBranch)
		g.cutFP = probCut((m.Load + m.Store + m.IntMul + m.IntDiv + m.FP) / nonBranch)
	}
	g.chainCut = probCut(p.ChainFrac)
	g.chaseCut = probCut(p.PointerChase)
	g.chainClass = isa.IntALU
	if p.Mix.FP >= 0.25 {
		g.chainClass = isa.FPOp
	}
	g.lastLoad = isa.RegNone
	if p.SystemFrac > 0 {
		// Kernel code: one big function with many blocks, distant base.
		// An average segment of ~400 instructions gives an overall
		// in-kernel fraction of about SystemFrac.
		g.kernel = buildProgram(p, progRng, blen, trip, slotBase+0x80000000, 2, 192)
		g.kernCut = probCut(p.SystemFrac / 400)
		g.kernSeg = newAliasGeom(400, geomTableSize(400), 8)
	}
	if p.CritLen > 1 {
		g.critLen = newAliasGeom(p.CritLen, geomTableSize(p.CritLen), 8)
	}
	g.initRegions()
	g.initSync()
	g.untilSerialize = -1 // derived at the first chunk reset
	return g
}

func (g *Generator) initRegions() {
	var cum float64
	for i, r := range g.p.Regions {
		base := g.slotBase + uint64(0x10000000000) + uint64(i)<<34
		if !r.Shared {
			// Private regions are disjoint per thread.
			base += uint64(g.thread+1) << 44
		}
		// Cursors are dynamic state: the chunk-0 reset derives them
		// before the first instruction, so they start at zero here.
		g.regions = append(g.regions, regionState{base: base})
		cum += r.Prob
		g.regionCut = append(g.regionCut, 0)
		g.writeCut = append(g.writeCut, probCut(r.WriteFrac))
	}
	// Normalize into integer cut points, and precompute each strided
	// region's expected cursor advance per chunk (accesses per chunk in
	// stride units): memory fraction of the mix times the region's share
	// of accesses times the chunk length. resetChunk uses it to continue
	// the stride walk across chunk boundaries.
	memFrac := g.p.Mix.Load + g.p.Mix.Store
	g.chunkStep = make([]uint64, len(g.p.Regions))
	if cum > 0 {
		var acc float64
		for i, r := range g.p.Regions {
			acc += r.Prob
			g.regionCut[i] = probCut(acc / cum)
			if r.Stride > 0 && r.Bytes > 0 {
				g.chunkStep[i] = uint64(float64(ChunkLen) * memFrac * (r.Prob / cum))
			}
		}
	}
}

func (g *Generator) initSync() {
	p := g.p
	if p.TotalWork > 0 && g.threads > 0 {
		g.budget = g.shareOfWork()
		g.initialBudget = g.budget
	}
	if p.BarrierEvery > 0 {
		g.barrierAt = g.scaledBarrierInterval()
	}
	if p.LockEvery > 0 && p.Locks > 0 {
		g.untilLock = p.LockEvery/2 + g.syncRng.Intn(p.LockEvery)
	}
}

// weights returns the per-thread relative work weights. With SerialFrac
// set, thread 0 is a pipeline source stage holding a fixed fraction of the
// total work; otherwise an Imbalance gradient skews the split.
func (g *Generator) weights() []float64 {
	w := make([]float64, g.threads)
	T := g.threads
	if T > 1 && g.p.SerialFrac > 0 {
		w[0] = g.p.SerialFrac
		for t := 1; t < T; t++ {
			w[t] = (1 - g.p.SerialFrac) / float64(T-1)
		}
		return w
	}
	for t := 0; t < T; t++ {
		w[t] = 1
		if T > 1 && g.p.Imbalance > 0 {
			w[t] = 1 + g.p.Imbalance*float64(t)/float64(T-1)
		}
	}
	return w
}

// shareOfWork splits TotalWork among threads by weight, so the most loaded
// thread limits scaling.
func (g *Generator) shareOfWork() uint64 {
	w := g.weights()
	var sum float64
	for _, f := range w {
		sum += f
	}
	return uint64(float64(g.p.TotalWork) * w[g.thread] / sum)
}

// scaledBarrierInterval keeps the number of barriers equal across threads
// despite imbalance, so barrier generations line up: each thread's
// interval is proportional to its work weight.
func (g *Generator) scaledBarrierInterval() uint64 {
	w := g.weights()
	var sum float64
	for _, f := range w {
		sum += f
	}
	avg := sum / float64(g.threads)
	iv := uint64(float64(g.p.BarrierEvery) * w[g.thread] / avg)
	if iv == 0 {
		iv = 1
	}
	return iv
}

// serializePeriod derives the distance to the next serializing
// instruction from the current instruction's draw budget.
func (g *Generator) serializePeriod() int {
	period := g.p.SerializeEvery
	if g.inKernel {
		period = 50 // system code serializes often
	}
	if period <= 0 {
		return -1
	}
	return period/2 + g.rng.Intn(period+1)
}

// Skippable reports whether the stream supports O(1) SkipTo. Streams
// with synchronization structure (barriers, locks) carry sequential
// schedule state that no chunk reset covers, so they fall back to
// generate-and-discard skipping.
func (g *Generator) Skippable() bool {
	p := g.p
	return p.BarrierEvery <= 0 && !(p.LockEvery > 0 && p.Locks > 0)
}

// SkipTo positions the stream at position n: the next instruction
// returned by Next carries Seq n, and the stream from here on is
// byte-identical to generating n instructions from a fresh generator
// and discarding them — the core v3 contract, fuzz-tested in
// FuzzSkipAhead. For Skippable streams the cost is O(1): the enclosing
// chunk's state is derived directly from the chunk index and at most
// ChunkLen-1 instructions are replayed, independent of n. Streams with
// synchronization structure fall back to sequential generate-and-
// discard and reject backward skips.
func (g *Generator) SkipTo(n uint64) error {
	if !g.Skippable() {
		if n < g.seq {
			return fmt.Errorf("workload: SkipTo(%d) backward from %d: stream %q has synchronization state and only skips forward", n, g.seq, g.p.Name)
		}
		for g.seq < n {
			if _, ok := g.Next(); !ok {
				break
			}
		}
		return nil
	}
	chunk := n / ChunkLen
	g.resetChunk(chunk)
	g.seq = chunk * ChunkLen
	g.Emitted = g.seq
	g.budget = g.initialBudget
	if g.initialBudget != ^uint64(0) {
		if g.seq >= g.initialBudget {
			g.budget = 0
		} else {
			g.budget = g.initialBudget - g.seq
		}
	}
	for g.seq < n {
		if _, ok := g.Next(); !ok {
			break
		}
	}
	return nil
}

// resetChunk derives the generator's dynamic interpreter state for the
// start of the given chunk, purely from the chunk index (reset-lane
// draws). It deliberately leaves the synchronization bookkeeping
// (budget, barrier/lock schedule) untouched: that state is sequential,
// and profiles that use it are not Skippable.
func (g *Generator) resetChunk(chunk uint64) {
	g.nextReset = (chunk + 1) * ChunkLen
	base := resetLane + chunk*resetStride

	// Control flow: restart interpretation at a phase-anchored function.
	// The anchor is drawn per phase (phaseChunks consecutive chunks), not
	// per chunk: a per-chunk draw would rerandomize the code signature
	// every ChunkLen instructions, destroying the phase stability that
	// code-signature analyses (SimPoint clustering) depend on. And it is
	// drawn from the static per-profile key, not the stream seed: the
	// phase sequence is a property of the benchmark binary, so streams
	// with different seeds (a warmup stream, say) visit the same code
	// regions. A phase is still a pure function of the chunk index, so
	// skip-ahead is intact.
	phase := chunk / phaseChunks
	g.cur = frame{fn: int(ctrDraw(g.phaseKey, phaseLane+phase) % uint64(len(g.user.funcs)))}
	g.pos = 0
	g.callStack = g.callStack[:0]
	g.inKernel = false
	g.kernLeft = 0
	g.kcur = frame{}
	g.kstack = g.kstack[:0]
	clearSiteCounts(g.user)
	if g.kernel != nil {
		clearSiteCounts(g.kernel)
	}

	// Dataflow.
	g.ringLen, g.ringHead = 0, 0
	g.nextDst = 8
	g.lastLoad = isa.RegNone

	// Memory: streaming cursors continue, not restart. Each chunk's
	// cursor is the stream's per-region start offset advanced by the
	// expected number of accesses all previous chunks made (chunkStep,
	// in stride units) — a pure function of the chunk index that tracks
	// where a sequential walk would actually be, so a reset does not
	// inject a burst of cold misses the way a rerandomized cursor would
	// (the detailed core serializes those misses; the interval model
	// does not, and the fidelity gap shows up in miss-bound profiles).
	g.lastRegion = 0
	for i := range g.regions {
		spec := &g.p.Regions[i]
		g.regions[i].cursor = 0
		if spec.Stride > 0 && spec.Bytes > 0 {
			slots := spec.Bytes / spec.Stride
			if slots == 0 {
				slots = 1
			}
			start := ctrDraw(g.rng.key, cursorLane+uint64(i)) % slots
			g.regions[i].cursor = ((start + chunk*g.chunkStep[i]) % slots) * spec.Stride
		}
	}

	// Serialization phase.
	if period := g.p.SerializeEvery; period > 0 {
		g.untilSerialize = period/2 + int(ctrDraw(g.rng.key, base+1)%uint64(period+1))
	} else {
		g.untilSerialize = -1
	}
}

func clearSiteCounts(prog *program) {
	for f := range prog.funcs {
		sites := prog.funcs[f].sites
		for i := range sites {
			sites[i].count = 0
		}
	}
}

// Next implements trace.Stream.
func (g *Generator) Next() (isa.Inst, bool) {
	if len(g.pendingSync) > 0 {
		in := g.pendingSync[0]
		g.pendingSync = g.pendingSync[1:]
		in.Seq = g.seq
		g.seq++
		g.Emitted++
		return in, true
	}
	if g.budget == 0 {
		return isa.Inst{}, false
	}
	if g.seq >= g.nextReset {
		g.resetChunk(g.seq / ChunkLen)
	}
	g.budget--

	// Position the counter-based RNG on this instruction's draw window.
	g.rng.ctr = g.seq * drawStride
	in := g.synthesize()
	in.Seq = g.seq
	g.seq++
	g.Emitted++
	g.accountSync(&in)
	return in, true
}

// NextBatch implements trace.BatchStream: the same stream as Next, produced
// through direct (devirtualized) calls per chunk.
func (g *Generator) NextBatch(buf []isa.Inst) int {
	n := 0
	for n < len(buf) {
		in, ok := g.Next()
		if !ok {
			break
		}
		buf[n] = in
		n++
	}
	return n
}

// accountSync updates barrier/lock bookkeeping after emitting in and queues
// any synchronization instructions that must follow. Its draws come from
// the sequential syncRng: profiles with synchronization structure are
// pinned to sequential generation (see Skippable), so the schedule needs
// no jump-ahead.
func (g *Generator) accountSync(in *isa.Inst) {
	p := g.p
	if p.BarrierEvery > 0 && g.budget > 0 {
		g.sinceBarrier++
		if g.sinceBarrier >= g.barrierAt && g.critLeft == 0 {
			g.sinceBarrier = 0
			g.pendingSync = append(g.pendingSync, isa.Inst{Class: isa.BarrierArrive})
		}
	}
	if p.LockEvery > 0 && p.Locks > 0 {
		if g.critLeft > 0 {
			g.critLeft--
			if g.critLeft == 0 {
				g.pendingSync = append(g.pendingSync,
					isa.Inst{Class: isa.LockRelease, SyncID: g.heldLock})
			}
		} else {
			g.untilLock--
			if g.untilLock <= 0 {
				g.untilLock = p.LockEvery/2 + g.syncRng.Intn(p.LockEvery)
				g.heldLock = uint16(g.syncRng.Intn(p.Locks))
				g.critLeft = 1 + g.critLen.sample(g.syncRng)
				g.pendingSync = append(g.pendingSync,
					isa.Inst{Class: isa.LockAcquire, SyncID: g.heldLock})
			}
		}
	}
}

// synthesize produces the next instruction from the CFG interpreter.
func (g *Generator) synthesize() isa.Inst {
	// Possibly enter or leave a system-code segment between blocks.
	if g.kernel != nil && g.pos == 0 {
		if g.inKernel {
			if g.kernLeft <= 0 {
				g.inKernel = false
				g.untilSerialize = g.serializePeriod()
			}
		} else if g.rng.next() < g.kernCut {
			g.inKernel = true
			g.kernLeft = 200 + g.kernSeg.sample(&g.rng)
			g.kcur = frame{fn: 0, block: 0}
			g.untilSerialize = g.serializePeriod()
		}
	}

	prog, cur := g.user, &g.cur
	if g.inKernel {
		prog, cur = g.kernel, &g.kcur
		g.kernLeft--
	}
	fn := &prog.funcs[cur.fn]
	bl := &fn.blocks[cur.block]

	if g.pos < bl.bodyLen {
		pc := bl.startPC + uint64(g.pos)*4
		g.pos++
		if g.untilSerialize == 0 {
			g.untilSerialize = g.serializePeriod()
			return isa.Inst{Class: isa.Serializing, PC: pc}
		}
		if g.untilSerialize > 0 {
			g.untilSerialize--
		}
		return g.bodyInst(pc)
	}

	// Terminator.
	pc := bl.startPC + uint64(bl.bodyLen)*4
	g.pos = 0
	switch bl.term {
	case termCall:
		stack := &g.callStack
		if g.inKernel {
			stack = &g.kstack
		}
		if len(*stack) < 64 {
			*stack = append(*stack, frame{fn: cur.fn, block: g.nextBlock(prog, cur.fn, cur.block)})
			cur.fn = bl.callee
			cur.block = 0
		} else {
			cur.block = g.nextBlock(prog, cur.fn, cur.block)
		}
		return isa.Inst{
			Class: isa.Call, PC: pc, Taken: true,
			Target: prog.funcs[cur.fn].entry,
			Src1:   g.pickSrc(), Src2: isa.RegNone, Dst: isa.RegNone,
		}
	case termRet:
		stack := &g.callStack
		if g.inKernel {
			stack = &g.kstack
		}
		var target uint64
		if len(*stack) > 0 {
			f := (*stack)[len(*stack)-1]
			*stack = (*stack)[:len(*stack)-1]
			*cur = f
		} else {
			cur.block = 0 // outermost loop: restart the function
		}
		target = prog.funcs[cur.fn].blocks[cur.block].startPC
		return isa.Inst{
			Class: isa.Return, PC: pc, Taken: true, Target: target,
			Src1: isa.RegNone, Src2: isa.RegNone, Dst: isa.RegNone,
		}
	default:
		site := &fn.sites[bl.site]
		taken := g.evalSite(site)
		var target uint64
		if taken {
			if site.kind == siteLoop {
				// New iteration: values of the previous iteration
				// are dead; only the accumulator chain persists.
				g.ringLen = 0
			}
			cur.block = site.target
			target = fn.blocks[site.target].startPC
		} else {
			cur.block = g.nextBlock(prog, cur.fn, cur.block)
			target = fn.blocks[cur.block].startPC
		}
		return isa.Inst{
			Class: isa.Branch, PC: pc, Taken: taken, Target: target,
			Src1: g.pickSrc(), Src2: isa.RegNone, Dst: isa.RegNone,
		}
	}
}

func (g *Generator) nextBlock(prog *program, fnIdx, blockIdx int) int {
	if blockIdx+1 < len(prog.funcs[fnIdx].blocks) {
		return blockIdx + 1
	}
	return 0
}

func (g *Generator) evalSite(s *branchSite) bool {
	switch s.kind {
	case siteLoop:
		s.count++
		if s.count < s.trip {
			return true
		}
		s.count = 0
		return false
	default:
		return g.rng.next() < s.cut
	}
}

// bodyInst synthesizes one non-control instruction at pc according to the
// mix.
// accumReg is the loop-carried accumulator register.
const accumReg = 7

func (g *Generator) bodyInst(pc uint64) isa.Inst {
	if g.chainCut != 0 && g.rng.next() < g.chainCut {
		// Extend the loop-carried chain: acc = f(acc, recent value).
		// Floating-point codes accumulate through the FP pipeline
		// (reductions, recurrences), integer codes through the ALU.
		return isa.Inst{
			Class: g.chainClass, PC: pc,
			Src1: accumReg, Src2: g.pickSrc(), Dst: accumReg,
		}
	}
	u := g.rng.next()
	switch {
	case u < g.cutLoad:
		return g.loadInst(pc)
	case u < g.cutStore:
		return g.storeInst(pc)
	case u < g.cutMul:
		return g.aluInst(pc, isa.IntMul)
	case u < g.cutDiv:
		return g.aluInst(pc, isa.IntDiv)
	case u < g.cutFP:
		return g.aluInst(pc, isa.FPOp)
	default:
		return g.aluInst(pc, isa.IntALU)
	}
}

func (g *Generator) aluInst(pc uint64, class isa.Class) isa.Inst {
	in := isa.Inst{
		Class: class, PC: pc,
		Src1: g.pickSrc(), Src2: g.pickSrc(),
		Dst: g.allocDst(),
	}
	return in
}

func (g *Generator) loadInst(pc uint64) isa.Inst {
	chase := g.lastLoad != isa.RegNone && g.chaseCut != 0 && g.rng.next() < g.chaseCut
	addr, strided := g.pickAddr(chase)
	var src1 uint8
	switch {
	case chase:
		// Pointer chase: address depends on the previous load.
		src1 = g.lastLoad
	case strided:
		// Streaming access: the address comes from an induction
		// variable, long since computed — independent of recent
		// results, which is what gives streaming codes their MLP.
		src1 = uint8(g.rng.Intn(8))
	default:
		src1 = g.pickSrc()
	}
	// Shared regions with a write fraction convert some of their
	// accesses into stores (coherence/invalidation traffic).
	if len(g.writeCut) > 0 {
		if cut := g.writeCut[g.lastRegion]; cut != 0 && g.rng.next() < cut {
			return isa.Inst{
				Class: isa.Store, PC: pc, Addr: addr,
				Src1: src1, Src2: g.pickSrc(), Dst: isa.RegNone,
			}
		}
	}
	dst := g.allocDst()
	g.lastLoad = dst
	return isa.Inst{
		Class: isa.Load, PC: pc, Addr: addr,
		Src1: src1, Src2: isa.RegNone, Dst: dst,
	}
}

func (g *Generator) storeInst(pc uint64) isa.Inst {
	addr, _ := g.pickAddr(false)
	return isa.Inst{
		Class: isa.Store, PC: pc, Addr: addr,
		Src1: g.pickSrc(), Src2: g.pickSrc(), Dst: isa.RegNone,
	}
}

// pickAddr chooses an effective address. chase keeps the access in the same
// region as the previous load (dependent pointer walk). strided reports
// whether the chosen region is a streaming region.
func (g *Generator) pickAddr(chase bool) (addr uint64, strided bool) {
	if len(g.regions) == 0 {
		return g.slotBase + 0x10000000000, false
	}
	idx := 0
	if !chase {
		u := g.rng.next()
		for idx < len(g.regionCut)-1 && u >= g.regionCut[idx] {
			idx++
		}
	} else {
		idx = g.lastRegion
	}
	g.lastRegion = idx
	reg := &g.regions[idx]
	spec := &g.p.Regions[idx]
	size := spec.Bytes
	if size < 64 {
		size = 64
	}
	var off uint64
	if spec.Stride > 0 {
		reg.cursor = (reg.cursor + spec.Stride) % size
		off = reg.cursor
	} else {
		off = (uint64(g.rng.Int63())%(size/64))*64 + uint64(g.rng.Intn(8))*8
	}
	return reg.base + off, spec.Stride > 0
}

// pickSrc picks a source register with a geometric dependence distance over
// recently written registers (v3: one alias-table probe instead of a
// math.Log inverse transform — this is the hottest draw in the
// generator, reached by nearly every synthesized instruction).
func (g *Generator) pickSrc() uint8 {
	if g.ringLen == 0 {
		return uint8(g.rng.Intn(8)) // ambient value
	}
	d := g.depDist.sample(&g.rng)
	if d >= g.ringLen {
		return uint8(g.rng.Intn(8))
	}
	idx := (g.ringHead - 1 - d + 2*len(g.ring)) % len(g.ring)
	return g.ring[idx]
}

func (g *Generator) allocDst() uint8 {
	dst := g.nextDst
	g.nextDst++
	if g.nextDst >= isa.NumRegs {
		g.nextDst = 8
	}
	g.ring[g.ringHead] = dst
	g.ringHead = (g.ringHead + 1) % len(g.ring)
	if g.ringLen < len(g.ring) {
		g.ringLen++
	}
	return dst
}
