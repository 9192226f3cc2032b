package core

import (
	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Per-instruction window marks of Figure 3 (I_overlapped, br_overlapped,
// D_overlapped), packed into one byte of the flags ring.
const (
	flagIOv uint8 = 1 << iota
	flagBrOv
	flagDOv
	// flagBrChecked records that the branch predictor was already
	// consulted during an overlap scan (it must not be trained twice);
	// flagBrMisp is the recorded outcome.
	flagBrChecked
	flagBrMisp
)

// Core is one interval-simulated core: the mechanistic analytical model
// driven by the shared branch predictor and memory hierarchy simulators.
// It implements sim.Core, so the multi-core driver treats it exactly like
// the detailed model.
type Core struct {
	id     int
	cfg    config.Core
	opts   Options
	maxLL  int // outstanding long-latency load budget per overlap scan
	bp     *branch.Unit
	mem    *memhier.Hierarchy
	src    trace.Stream
	syncer sim.Syncer

	// The window corresponds to the reorder buffer; instructions enter at
	// the tail from the functional simulator and are considered at the
	// head (Figure 2). It is a view into the hand-off ring: the stream
	// writes chunks directly into fbuf via NextBatch, and the window is
	// the first winLen of the filled entries — no per-instruction copy
	// between the functional and timing sides. flags carries the overlap
	// marks, parallel to fbuf.
	fbuf   []isa.Inst
	flags  []uint8
	fmask  int
	fhead  int // ring index of the window head
	winLen int // window occupancy (= ROB content)
	filled int // buffered instructions in the ring, including the window
	winCap int // logical window capacity (ROBSize)

	old *OldWindow

	coreTime   int64   // per-core simulated time
	oldBase    int64   // core time of the last old-window flush
	sinceLL    int64   // instructions dispatched since the last long-latency event
	dispCredit float64 // fractional dispatch budget carryover
	creditCap  float64 // 2*DecodeWidth, precomputed

	srcDone    bool
	retired    uint64
	done       bool
	finishTime int64

	// lastILine is the I-cache line of the previous fetch; consecutive
	// instructions on the same line need no new I-cache access (fetch is
	// line-granular).
	lastILine uint64

	// taintLines carries memory dependences during the overlap scan.
	// taintRegs is indexed directly by operand byte: slot RegNone (0xFF)
	// is never written and always false, so the scan needs no "is there
	// an operand" branches.
	taintRegs  [256]bool
	taintLines lineSet

	// stack accumulates attributed penalty cycles for the CPI stack;
	// Stack() derives the base component as the residual.
	stack CPIStack

	// intervals histograms the instruction runs between miss events;
	// sinceEvent counts instructions dispatched since the last one.
	intervals  IntervalStats
	sinceEvent uint64

	// Statistics.
	Cycles          int64
	ICacheEvents    uint64
	BranchEvents    uint64
	LongLoadEvents  uint64
	SerializeEvents uint64
	OverlapHidden   uint64 // miss events hidden under long-latency loads
	OverlapLL       uint64 // long-latency loads overlapped during scans
	ScanBreaks      uint64 // scans ended early by a mispredicted branch
	WrongPathLines  uint64 // wrong-path I-lines fetched (WrongPathFetch option)
}

// New creates an interval core over the shared miss-event simulators.
func New(id int, cfg config.Core, bp *branch.Unit, mem *memhier.Hierarchy, src trace.Stream, syncer sim.Syncer) *Core {
	return NewWithOptions(id, cfg, Options{}, bp, mem, src, syncer)
}

// NewWithOptions creates an interval core with ablation options (the zero
// Options value is the full model).
func NewWithOptions(id int, cfg config.Core, opts Options, bp *branch.Unit, mem *memhier.Hierarchy, src trace.Stream, syncer sim.Syncer) *Core {
	if syncer == nil {
		syncer = sim.NullSyncer{}
	}
	maxLL := cfg.MaxOutstandingMisses
	if maxLL <= 0 {
		maxLL = 32
	}
	ring := fetchBatch
	if min := ceilPow2(2 * cfg.ROBSize); ring < min {
		ring = min
	}
	c := &Core{
		id:         id,
		cfg:        cfg,
		opts:       opts,
		maxLL:      maxLL,
		bp:         bp,
		mem:        mem,
		src:        src,
		syncer:     syncer,
		fbuf:       make([]isa.Inst, ring),
		flags:      make([]uint8, ring),
		fmask:      ring - 1,
		winCap:     cfg.ROBSize,
		creditCap:  2 * float64(cfg.DecodeWidth),
		old:        NewOldWindow(cfg),
		taintLines: newLineSet(cfg.ROBSize),
	}
	return c
}

// fetchBatch is the functional→timing hand-off ring size: large enough to
// amortize the stream call, small enough to stay cache-resident. The ring
// is grown to hold at least two ROBs when the ROB is outsized.
const fetchBatch = 1024

// Retired implements sim.Core.
func (c *Core) Retired() uint64 { return c.retired }

// Done implements sim.Core.
func (c *Core) Done() bool { return c.done }

// FinishTime implements sim.Core.
func (c *Core) FinishTime() int64 { return c.finishTime }

// LocalTime returns the per-core simulated time.
func (c *Core) LocalTime() int64 { return c.coreTime }

// NextActive implements sim.TimeSkipper: the core does nothing until its
// local time catches global time.
func (c *Core) NextActive(now int64) int64 {
	if c.coreTime > now {
		return c.coreTime
	}
	return now
}

// MispredictRate returns the branch predictor's misprediction ratio so
// far (lookups include overlap-scan accesses, each dynamic branch exactly
// once).
func (c *Core) MispredictRate() float64 { return c.bp.MispredictRate() }

// IPC returns retired instructions per simulated cycle so far.
func (c *Core) IPC() float64 {
	if c.coreTime == 0 {
		return 0
	}
	return float64(c.retired) / float64(c.coreTime)
}

// fill tops up the window from the functional simulator. Entries already
// buffered in the ring join the window with a one-byte flag reset; the
// stream is consulted only when the ring runs dry, one contiguous chunk at
// a time, writing straight into the ring.
func (c *Core) fill() {
	fg := c.flags
	for c.winLen < c.winCap {
		if c.filled == c.winLen {
			if c.srcDone {
				return
			}
			pos := (c.fhead + c.filled) & c.fmask
			span := len(c.fbuf) - c.filled
			if cont := len(c.fbuf) - pos; cont < span {
				span = cont
			}
			k := c.src.NextBatch(c.fbuf[pos : pos+span])
			if k == 0 {
				c.srcDone = true
				return
			}
			c.filled += k
		}
		fg[(c.fhead+c.winLen)&(len(fg)-1)] = 0
		c.winLen++
	}
}

func (c *Core) head() *isa.Inst {
	return &c.fbuf[c.fhead]
}

func (c *Core) pop() {
	c.fhead = (c.fhead + 1) & c.fmask
	c.winLen--
	c.filled--
}

// Step implements sim.Core: the per-core body of the Figure 3 loop for one
// global cycle. The core is simulated only when its local time has caught
// up with global time; miss-event penalties push local time ahead, so the
// core then skips cycles — event-driven simulation at the core level.
func (c *Core) Step(now int64) {
	if c.done || c.coreTime != now {
		return
	}
	c.Cycles++
	if c.winLen < c.winCap {
		c.fill()
	}
	if c.winLen == 0 {
		if c.srcDone {
			c.done = true
			c.finishTime = c.coreTime
		} else {
			c.coreTime++
		}
		return
	}

	c.dispCredit += c.old.DispatchRate()
	if c.dispCredit > c.creditCap {
		c.dispCredit = c.creditCap
	}
	blocked := false
	fg := c.flags
	for c.coreTime == now && c.dispCredit >= 1 && c.winLen > 0 {
		if !c.dispatchHead() {
			// Blocked on synchronization: retry next cycle.
			c.dispCredit = 0
			blocked = true
			break
		}
		c.dispCredit--
		// Refill the freed window slot straight from the ring when an
		// instruction is already buffered (the common case); fall back to
		// fill for chunk refills and end-of-stream.
		if c.filled > c.winLen && c.winLen < c.winCap {
			fg[(c.fhead+c.winLen)&(len(fg)-1)] = 0
			c.winLen++
		} else if c.winLen < c.winCap {
			c.fill()
		}
	}
	if c.coreTime == now {
		c.coreTime++
		if blocked {
			c.stack.Sync++
		}
	}
}

// flushOld ages the old window by the time that passed since its base and
// re-bases dispatch times at the current core time. Every miss event calls
// this: penalties age the tracked dataflow, so short chains vanish (the
// interval-length effect) while loop-carried chains survive the event.
// Under the FlushOldWindow ablation the window is emptied instead, as in
// the paper's literal pseudocode.
func (c *Core) flushOld() {
	if c.opts.FlushOldWindow {
		c.old.Empty()
	} else {
		c.old.Shift(c.coreTime - c.oldBase)
	}
	c.oldBase = c.coreTime
}

// dispatchHead considers the instruction at the window head, charges any
// miss-event penalty to the core's simulated time, and dispatches it. It
// returns false when the instruction is a synchronization operation that
// must stall.
func (c *Core) dispatchHead() bool {
	in := c.head()
	fl := c.flags[c.fhead]

	if in.Class.IsSync() {
		dec := c.syncer.Sync(c.id, in, c.coreTime)
		if !dec.Proceed {
			return false
		}
		// Synchronization operations serialize like memory barriers:
		// the window drains before they execute, then the sync latency
		// applies.
		pen := c.old.DrainTime(c.coreTime-c.oldBase) + dec.Latency
		c.coreTime += pen
		c.stack.Sync += pen
		c.flushOld()
		c.pop()
		c.retired++
		return true
	}

	var loadLat int64

	// Handle I-cache and I-TLB (lines 11–18). Fetch is line-granular:
	// only the first instruction on each line accesses the I-cache.
	if line := in.PC >> 6; fl&flagIOv == 0 && line != c.lastILine {
		c.lastILine = line
		ires := c.mem.Inst(c.id, in.PC, c.coreTime)
		if ires.Latency > 0 {
			c.coreTime += ires.Latency
			c.stack.ICache += ires.Latency
			c.flushOld()
			c.ICacheEvents++
			c.noteInterval(c.sinceEvent)
			c.sinceEvent = 0
		}
	}

	// Handle branch prediction (lines 20–28). A branch already checked
	// during an overlap scan reuses the recorded outcome instead of
	// training the predictor twice.
	if in.Class.IsBranch() && fl&flagBrOv == 0 {
		misp := fl&flagBrMisp != 0
		if fl&flagBrChecked == 0 {
			misp = c.bp.Predict(in)
		}
		if misp {
			var resolution int64
			if c.opts.NoDispatchFloor {
				resolution = c.old.BranchResolutionPure(in)
			} else {
				resolution = c.old.BranchResolution(in, c.coreTime-c.oldBase)
			}
			if c.opts.WrongPathFetch {
				c.wrongPathFetch(in, resolution)
			}
			pen := resolution + int64(c.cfg.FrontendDepth)
			c.coreTime += pen
			c.stack.Branch += pen
			c.flushOld()
			c.BranchEvents++
			c.noteInterval(c.sinceEvent)
			c.sinceEvent = 0
		}
	}

	// Handle loads and stores (lines 30–53).
	if in.Class == isa.Store || (in.Class == isa.Load && fl&flagDOv == 0) {
		res := c.mem.Data(c.id, in.Addr, in.Class == isa.Store, c.coreTime)
		if in.Class == isa.Load {
			if res.LongLatency() {
				if !c.opts.NoOverlapScan {
					c.scanOverlap(in, res.Latency)
				}
				pen := c.longLoadPenalty(res.Latency)
				c.coreTime += pen
				c.stack.LongLoad += pen
				c.flushOld()
				c.LongLoadEvents++
				c.noteInterval(c.sinceEvent)
				c.sinceEvent = 0
			} else {
				loadLat = int64(c.cfg.LatLoad) + res.Latency
			}
		}
	}

	// Handle serializing instructions (lines 55–59).
	if in.Class == isa.Serializing {
		pen := c.old.DrainTime(c.coreTime - c.oldBase)
		c.coreTime += pen
		c.stack.Serialize += pen
		c.flushOld()
		c.SerializeEvents++
		c.noteInterval(c.sinceEvent)
		c.sinceEvent = 0
	}

	// Dispatch: move the head into the old window, pull in a new
	// instruction at the tail (lines 61–65).
	c.old.Insert(in, loadLat, c.coreTime-c.oldBase)
	c.pop()
	c.retired++
	c.sinceLL++
	c.sinceEvent++
	return true
}

// longLoadPenalty converts a long-latency miss latency into the dispatch
// penalty. The paper approximates the penalty by the full memory access
// latency and notes this overestimates it: "the processor may be
// dispatching instructions while the L2 miss is being resolved". The
// refinement here subtracts the ROB-fill hiding: once the load issues, the
// processor keeps dispatching until the reorder buffer fills, which takes
// up to ROBSize/width cycles. That headroom exists only when the window has
// been streaming since the last miss event — back-to-back misses (pointer
// chases) arrive with the ROB still full and are charged in full. The
// instructions retired since the last flush (the old-window occupancy,
// capped at the ROB size) measure exactly that headroom.
func (c *Core) longLoadPenalty(latency int64) int64 {
	if c.opts.NoROBFillHiding {
		c.sinceLL = 0
		return latency
	}
	headroom := c.sinceLL
	if headroom > int64(c.cfg.ROBSize) {
		headroom = int64(c.cfg.ROBSize)
	}
	p := latency - headroom/int64(c.cfg.DecodeWidth)
	if p <= 0 {
		// Fully absorbed by the reorder buffer: dispatch never stalled,
		// so the accumulated headroom survives for the next miss.
		return 0
	}
	c.sinceLL = 0
	return p
}

// wrongPathFetch models the front end running down the wrong path while a
// mispredicted branch resolves: sequential line-granular fetches starting
// at the path not taken, for as many lines as the fetch engine covers in
// the resolution time. The accesses touch the L1I (pollution or accidental
// prefetch) and consume fabric/DRAM bandwidth; they charge no core time —
// the resolution penalty already covers the shadow they run in.
func (c *Core) wrongPathFetch(br *isa.Inst, resolution int64) {
	// The wrong path is live from the fetch of the branch until the
	// redirect reaches fetch: resolution plus the front-end depth.
	shadow := resolution + int64(c.cfg.FrontendDepth)
	lines := shadow * int64(c.cfg.FetchWidth) / 16
	const maxWrongPathLines = 16
	if lines < 1 {
		lines = 1
	}
	if lines > maxWrongPathLines {
		lines = maxWrongPathLines
	}
	// The wrong path is the one the machine fetched: the fall-through
	// when the branch was actually taken, the (predicted/stale) target
	// otherwise.
	start := br.PC + 4
	if !br.Taken && br.Target != 0 {
		start = br.Target
	}
	line := start >> 6
	for k := int64(0); k < lines; k++ {
		c.mem.Inst(c.id, (line+uint64(k))<<6, c.coreTime)
		c.WrongPathLines++
	}
}

// scanOverlap implements the second-order overlap modeling of lines 35–49:
// upon a long-latency load at the head, all instructions in the window are
// scanned head to tail; I-cache accesses, independent branches and
// independent loads execute underneath the miss and are marked so they
// charge no penalty when they reach the head. Dependence on the
// long-latency load is tracked through registers and stored-to memory
// lines; a dependent branch or load serializes and is not overlapped. The
// scan stops at serializing instructions. A mispredicted overlapped branch
// consumes part of the miss shadow — it resolves underneath the miss and
// the front end then refills along the correct path (which is exactly the
// functional-first stream), so scanning continues until the accumulated
// redirect costs exhaust the head miss's latency. The paper's pseudocode
// breaks at the first mispredicted branch; this refinement models the
// mechanism its Section 2 describes (the redirect is hidden as long as
// resolution plus refill fit in the shadow).
func (c *Core) scanOverlap(load *isa.Inst, headLatency int64) {
	_ = headLatency
	for i := range c.taintRegs {
		c.taintRegs[i] = false
	}
	c.taintLines.clear()
	if load.HasDst() {
		c.taintRegs[load.Dst] = true
	}
	scanILine := c.lastILine
	// The head miss holds one outstanding-miss slot; further independent
	// long-latency loads may overlap only while the hardware has slots
	// left (the paper: MLP is exposed "provided that a sufficient number
	// of outstanding long-latency loads are supported").
	outstanding := 1

	fb, fg := c.fbuf, c.flags
	tr := &c.taintRegs
	noTaint := c.opts.NoTaint
	hidden := uint64(0)
	for i := 1; i < c.winLen; i++ {
		idx := (c.fhead + i) & (len(fb) - 1)
		in := &fb[idx]
		fl0 := fg[idx&(len(fg)-1)]
		fl := fl0

		if in.Class == isa.Serializing || in.Class.IsSync() {
			break
		}

		if fl&flagIOv == 0 {
			fl |= flagIOv
			if line := in.PC >> 6; line != scanILine {
				scanILine = line
				c.mem.Inst(c.id, in.PC, c.coreTime)
			}
			hidden++
		}

		// Register taint reads are branchless (slot RegNone stays false);
		// the store-line set is consulted only for loads while any store
		// has been tainted.
		dependent := false
		if !noTaint {
			dependent = tr[in.Src1] || tr[in.Src2]
			if !dependent && in.Class == isa.Load && c.taintLines.n > 0 {
				dependent = c.taintLines.contains(in.Addr >> 6)
			}
		}

		if in.Class.IsBranch() && fl&(flagBrChecked|flagBrOv) == 0 {
			fl |= flagBrChecked
			misp := c.bp.Predict(in)
			if misp {
				fl |= flagBrMisp
			}
			if !dependent {
				// The branch executes underneath the miss. A
				// misprediction redirects the front end: the
				// resolution and refill consume part of the miss
				// shadow; if the shadow is exhausted, nothing
				// further overlaps.
				fl |= flagBrOv
				hidden++
				if misp {
					// Fetch beyond the redirect is wrong-path until
					// the branch resolves: stop the scan (paper,
					// Figure 3 line 40).
					fg[idx&(len(fg)-1)] = fl
					c.ScanBreaks++
					c.OverlapHidden += hidden
					return
				}
			} else if misp {
				// A branch depending on the head load resolves only
				// when the miss returns: everything the front end
				// fetched beyond it was the wrong path, so nothing
				// beyond it overlaps. The branch itself is charged
				// when it reaches the head.
				fg[idx&(len(fg)-1)] = fl
				c.ScanBreaks++
				c.OverlapHidden += hidden
				return
			}
		}

		// An independent load executes underneath the miss (MLP). If it
		// is itself long-latency, instructions depending on it cannot
		// overlap the head miss: dependent long-latency loads serialize
		// their penalties, so the new miss taints its consumers. With
		// all outstanding-miss slots in use the load cannot issue and is
		// left unmarked — it will be charged when it reaches the head.
		taint := dependent
		if in.Class == isa.Load && !dependent && fl&flagDOv == 0 && outstanding < c.maxLL {
			fl |= flagDOv
			hidden++
			res := c.mem.Data(c.id, in.Addr, false, c.coreTime)
			if res.LongLatency() {
				taint = true
				c.OverlapLL++
				outstanding++
			}
		}
		if fl != fl0 {
			fg[idx&(len(fg)-1)] = fl
		}

		// Propagate taint through the dataflow.
		if in.HasDst() {
			tr[in.Dst] = taint
		}
		if in.Class == isa.Store && taint {
			c.taintLines.add(in.Addr >> 6)
		}
	}
	c.OverlapHidden += hidden
}

var _ sim.Core = (*Core)(nil)
