package workload

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// skipMatches asserts the core v3 contract: SkipTo(n) followed by m
// instructions is byte-identical to generating n+m instructions straight
// and discarding the first n.
func skipMatches(t testing.TB, p *Profile, seed int64, slot int, n uint64, m int) {
	t.Helper()
	a := NewSlot(p, 0, 1, seed, slot)
	b := NewSlot(p, 0, 1, seed, slot)
	a.discardTo(n)
	if err := b.SkipTo(n); err != nil {
		t.Fatalf("%s seed=%d slot=%d SkipTo(%d): %v", p.Name, seed, slot, n, err)
	}
	xs, ys := trace.Record(a, m), trace.Record(b, m)
	if len(xs) != len(ys) {
		t.Fatalf("%s seed=%d slot=%d: after SkipTo(%d) the straight stream ends after %d insts, the skipped one after %d",
			p.Name, seed, slot, n, len(xs), len(ys))
	}
	for i := range xs {
		if xs[i] != ys[i] {
			t.Fatalf("%s seed=%d slot=%d: stream diverges %d after SkipTo(%d):\nstraight: %+v\nskipped:  %+v",
				p.Name, seed, slot, i, n, xs[i], ys[i])
		}
	}
}

// TestSkipToConformance drives SkipTo across chunk boundaries, at exact
// boundaries, within the first chunk, and past large distances, on both
// the O(1) path (single-threaded profiles) and the sequential fallback
// (synchronization profiles).
func TestSkipToConformance(t *testing.T) {
	positions := []uint64{0, 1, 17, ChunkLen - 1, ChunkLen, ChunkLen + 1,
		3*ChunkLen - 5, 5 * ChunkLen, 7*ChunkLen + 1234}
	for _, name := range []string{"gcc", "mcf", "swim", "art"} {
		p := SPECByName(name)
		if !New(p, 0, 1, 1).Skippable() {
			t.Fatalf("%s: single-threaded profile not skippable", name)
		}
		for _, n := range positions {
			skipMatches(t, p, 42, 0, n, 2000)
		}
	}
	// Slots must not perturb the skip contract (the slot never enters a
	// draw).
	skipMatches(t, SPECByName("gcc"), 42, 5, 2*ChunkLen+100, 2000)
	// Synchronization profiles use the sequential fallback.
	for _, name := range []string{"streamcluster", "fluidanimate"} {
		p := PARSECByName(name)
		if New(p, 0, 2, 1).Skippable() {
			t.Fatalf("%s: synchronization profile reported skippable", name)
		}
		skipMatches(t, p, 42, 0, ChunkLen+77, 2000)
	}
}

// TestSkipToIsO1 asserts the mechanism, not just the result: a skip deep
// into the stream must replay fewer than ChunkLen instructions, which it
// proves by consuming no budget beyond the chunk remainder.
func TestSkipToIsO1(t *testing.T) {
	p := SPECByName("gcc")
	g := New(p, 0, 1, 42)
	const target = 1_000_000_000 // a billion instructions: sequential replay would take minutes
	if err := g.SkipTo(target); err != nil {
		t.Fatal(err)
	}
	next := trace.Record(g, 1)
	if len(next) == 0 {
		t.Fatal("stream ended after skip")
	}
	if in := next[0]; in.Seq != target {
		t.Fatalf("Seq after SkipTo(%d) = %d", target, in.Seq)
	}
}

// TestSkipToBackward: skippable streams can skip backward (state is a
// pure function of position); synchronization streams must refuse.
func TestSkipToBackward(t *testing.T) {
	g := New(SPECByName("gcc"), 0, 1, 42)
	g.discardTo(3 * ChunkLen)
	if err := g.SkipTo(10); err != nil {
		t.Fatal(err)
	}
	want := New(SPECByName("gcc"), 0, 1, 42)
	want.SkipTo(10)
	xs, ys := trace.Record(g, 100), trace.Record(want, 100)
	for i := range ys {
		if xs[i] != ys[i] {
			t.Fatalf("backward skip diverges at %d", i)
		}
	}

	s := PARSECByName("streamcluster")
	h := New(s, 0, 2, 42)
	h.discardTo(100)
	if err := h.SkipTo(5); err == nil {
		t.Fatal("backward skip on a synchronization stream succeeded")
	}
}

// TestDrawBudget audits the per-instruction draw discipline the counter
// partitioning depends on: no synthesis path may consume more than
// drawStride draws.
func TestDrawBudget(t *testing.T) {
	profiles := append(SPEC(), PARSEC()...)
	for i := range profiles {
		p := &profiles[i]
		g := New(p, 0, 2, 42)
		var one [1]isa.Inst
		for i := 0; i < 50_000; i++ {
			before := g.seq
			if g.NextBatch(one[:]) == 0 {
				break
			}
			if g.rng.ctr < before*drawStride {
				continue // pending-sync emission: no draws
			}
			if used := g.rng.ctr - before*drawStride; used > drawStride {
				t.Fatalf("%s: instruction %d consumed %d draws (budget %d)", p.Name, before, used, drawStride)
			}
		}
	}
}

// TestChunkResetKeepsStreamWellFormed: chunk boundaries are interior
// stream positions, and the instructions straddling them must stay
// valid (dense Seq, in-range classes, nonzero memory addresses).
func TestChunkResetKeepsStreamWellFormed(t *testing.T) {
	insts := trace.Record(New(SPECByName("gcc"), 0, 1, 42), 3*ChunkLen)
	if len(insts) != 3*ChunkLen {
		t.Fatal("stream ended")
	}
	for i, in := range insts {
		if in.Seq != uint64(i) {
			t.Fatalf("Seq %d at position %d", in.Seq, i)
		}
		if int(in.Class) >= isa.NumClasses {
			t.Fatalf("class %d out of range", in.Class)
		}
		if in.Class.IsMem() && in.Addr == 0 {
			t.Fatalf("zero address at %d", i)
		}
	}
}

// FuzzSkipAhead fuzzes the core v3 contract over (profile, seed, slot,
// n, m): SkipTo(n) then m instructions must be byte-identical to
// generating n+m straight and discarding the prefix. Runs under -race
// in CI.
func FuzzSkipAhead(f *testing.F) {
	f.Add(uint8(0), int64(42), uint8(0), uint32(0), uint16(500))
	f.Add(uint8(3), int64(7), uint8(2), uint32(ChunkLen), uint16(1000))
	f.Add(uint8(9), int64(-1), uint8(0), uint32(ChunkLen-1), uint16(2000))
	f.Add(uint8(30), int64(1), uint8(0), uint32(3*ChunkLen+17), uint16(300))
	f.Add(uint8(12), int64(1<<40), uint8(200), uint32(65537), uint16(4096))
	profiles := append(SPEC(), PARSEC()...)
	f.Fuzz(func(t *testing.T, pi uint8, seed int64, slot uint8, n uint32, m uint16) {
		p := &profiles[int(pi)%len(profiles)]
		skipMatches(t, p, seed, int(slot)%MaxSlots, uint64(n)%200_000, int(m))
	})
}
