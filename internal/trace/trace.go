// Package trace defines the dynamic-instruction-stream plumbing between the
// functional simulator (the workload generator) and the timing models. The
// paper's framework is functional-first: a functional simulator produces
// the committed instruction stream, which is then fed to the timing
// simulator; this package is that interface.
package trace

import "repro/internal/isa"

// Stream produces a thread's dynamic instruction stream in program order,
// handed over in chunks: the per-instruction interface dispatch of a
// one-at-a-time contract is measurable in the timing models' inner loops,
// so consumers that buffer (the cores, the warmup loop) pull thousands of
// instructions per call. Per-instruction consumers read through Buffered.
type Stream interface {
	// NextBatch fills buf with the next instructions of the stream, in
	// program order, and returns how many were written. It returns 0 only
	// at end-of-stream (for a non-empty buf); a short count is allowed
	// anywhere, so callers that need exactly len(buf) use Fill.
	NextBatch(buf []isa.Inst) int
}

// BatchStream is the former name of Stream, kept for compatibility: the
// benchmark harness (perfbench/layers.go) still names it.
type BatchStream = Stream

// Batched returns s unchanged, since every Stream is batch-native. It is
// kept for compatibility: the benchmark harness (perfbench/layers.go)
// still calls it.
func Batched(s Stream) Stream { return s }

// Fill reads from src until buf is full or the stream ends and returns
// how many instructions were written.
func Fill(src Stream, buf []isa.Inst) int {
	n := 0
	for n < len(buf) {
		k := src.NextBatch(buf[n:])
		if k == 0 {
			break
		}
		n += k
	}
	return n
}

// Buffered is the per-instruction reader over a Stream, for consumers
// that take one instruction at a time without managing a chunk buffer
// themselves: Next is a direct (devirtualized) method call that refills
// from the underlying stream one chunk at a time. The one-IPC and
// detailed cores read through it; the interval core has its own ring
// because its window aliases the buffer. A Buffered reads ahead by up to
// one chunk, so it must be the stream's last consumer.
type Buffered struct {
	b    Stream
	buf  []isa.Inst
	pos  int
	n    int
	done bool
}

// NewBuffered wraps s with a chunk buffer of the given size.
func NewBuffered(s Stream, size int) *Buffered {
	if size < 1 {
		size = 1
	}
	return &Buffered{b: s, buf: make([]isa.Inst, size)}
}

// Next returns the next instruction, refilling the chunk buffer as needed.
func (r *Buffered) Next() (isa.Inst, bool) {
	if r.pos == r.n {
		if r.done {
			return isa.Inst{}, false
		}
		r.n = r.b.NextBatch(r.buf)
		r.pos = 0
		if r.n == 0 {
			r.done = true
			return isa.Inst{}, false
		}
	}
	in := r.buf[r.pos]
	r.pos++
	return in, true
}

// SliceStream replays a fixed slice of instructions (test helper and
// building block for recorded traces).
type SliceStream struct {
	insts []isa.Inst
	pos   int
}

// NewSliceStream wraps insts in a Stream.
func NewSliceStream(insts []isa.Inst) *SliceStream {
	return &SliceStream{insts: insts}
}

// NextBatch implements Stream with one bulk copy.
func (s *SliceStream) NextBatch(buf []isa.Inst) int {
	n := copy(buf, s.insts[s.pos:])
	s.pos += n
	return n
}

// Reset rewinds the stream to the beginning.
func (s *SliceStream) Reset() { s.pos = 0 }

// Record drains up to n instructions from src into a slice, so one
// generated stream can be replayed into several simulators.
func Record(src Stream, n int) []isa.Inst {
	out := make([]isa.Inst, n)
	return out[:Fill(src, out)]
}

// Limit wraps a stream and ends it after n instructions.
type Limit struct {
	src  Stream
	left int
}

// NewLimit creates a stream that yields at most n instructions from src.
func NewLimit(src Stream, n int) *Limit {
	return &Limit{src: src, left: n}
}

// NextBatch implements Stream, clamping the chunk to the remaining
// budget so the source is never read past it.
func (l *Limit) NextBatch(buf []isa.Inst) int {
	if l.left <= 0 {
		return 0
	}
	n := len(buf)
	if n > l.left {
		n = l.left
	}
	k := l.src.NextBatch(buf[:n])
	l.left -= k
	return k
}

// Stats accumulates simple class statistics over a stream (test and
// reporting helper).
type Stats struct {
	Total    uint64
	ByClass  [isa.NumClasses]uint64
	Branches uint64
	Memory   uint64
}

// Observe updates the statistics with one instruction.
func (st *Stats) Observe(in *isa.Inst) {
	st.Total++
	st.ByClass[in.Class]++
	if in.Class.IsBranch() {
		st.Branches++
	}
	if in.Class.IsMem() {
		st.Memory++
	}
}

// Frac returns the fraction of instructions of class c.
func (st *Stats) Frac(c isa.Class) float64 {
	if st.Total == 0 {
		return 0
	}
	return float64(st.ByClass[c]) / float64(st.Total)
}
