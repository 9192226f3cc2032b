package statsim

import (
	"math"
	"testing"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func specStream(name string, n int, seed int64) trace.Stream {
	p := workload.SPECByName(name)
	return trace.NewLimit(workload.New(p, 0, 1, seed), n)
}

func TestCollectCountsClasses(t *testing.T) {
	insts := []isa.Inst{
		{Class: isa.IntALU, Src1: isa.RegNone, Src2: isa.RegNone, Dst: 8},
		{Class: isa.Load, Addr: 0x1000, Src1: isa.RegNone, Src2: isa.RegNone, Dst: 9},
		{Class: isa.Branch, PC: 0x400000, Taken: true, Src1: isa.RegNone, Src2: isa.RegNone, Dst: isa.RegNone},
		{Class: isa.Store, Addr: 0x1040, Src1: 9, Src2: isa.RegNone, Dst: isa.RegNone},
	}
	p := Collect(trace.NewSliceStream(insts), 0)
	if p.Total != 4 {
		t.Fatalf("total = %d", p.Total)
	}
	if p.ClassCount[isa.Load] != 1 || p.ClassCount[isa.Branch] != 1 {
		t.Fatalf("class counts wrong: %v", p.ClassCount)
	}
	if p.TakenRate() != 1 {
		t.Fatalf("taken rate = %v", p.TakenRate())
	}
	// The store reads r9, written one instruction... two instructions
	// earlier (distance 2).
	if p.DepDist[2] != 1 {
		t.Fatalf("dep histogram: %v", p.DepDist[:8])
	}
	if p.StrideCount[strideNext] != 1 {
		t.Fatalf("stride histogram: %v", p.StrideCount)
	}
}

func TestCollectRespectsMax(t *testing.T) {
	p := Collect(specStream("gcc", 100_000, 42), 5000)
	if p.Total != 5000 {
		t.Fatalf("profiled %d, want 5000", p.Total)
	}
}

func TestCloneIsDeterministic(t *testing.T) {
	p := Collect(specStream("gcc", 20_000, 42), 0)
	a := trace.Record(NewClone(p, 1000, 7), 1000)
	b := trace.Record(NewClone(p, 1000, 7), 1000)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instruction %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCloneDiffersAcrossSeeds(t *testing.T) {
	p := Collect(specStream("gcc", 20_000, 42), 0)
	a := trace.Record(NewClone(p, 1000, 7), 1000)
	b := trace.Record(NewClone(p, 1000, 8), 1000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical clones")
	}
}

func TestCloneLengthExact(t *testing.T) {
	p := Collect(specStream("mcf", 10_000, 42), 0)
	got := trace.Record(NewClone(p, 2345, 1), 10_000)
	if len(got) != 2345 {
		t.Fatalf("clone length %d, want 2345", len(got))
	}
}

func TestClonePreservesClassMix(t *testing.T) {
	for _, name := range []string{"gcc", "mcf", "swim"} {
		p := Collect(specStream(name, 50_000, 42), 0)
		clone := Collect(NewClone(p, 50_000, 99), 0)
		for c := 0; c < isa.NumClasses; c++ {
			orig := p.ClassFrac(isa.Class(c))
			got := clone.ClassFrac(isa.Class(c))
			// Sync classes are remapped to Serializing in clones.
			if isa.Class(c).IsSync() || isa.Class(c) == isa.Serializing ||
				isa.Class(c) == isa.Call || isa.Class(c) == isa.Return || isa.Class(c) == isa.Branch {
				continue
			}
			if math.Abs(orig-got) > 0.02 {
				t.Errorf("%s class %v: original %.3f clone %.3f", name, isa.Class(c), orig, got)
			}
		}
		// Control-flow total is preserved even though call/return fold
		// into plain branches.
		origBr := p.ClassFrac(isa.Branch) + p.ClassFrac(isa.Call) + p.ClassFrac(isa.Return)
		gotBr := clone.ClassFrac(isa.Branch)
		if math.Abs(origBr-gotBr) > 0.02 {
			t.Errorf("%s branch fraction: original %.3f clone %.3f", name, origBr, gotBr)
		}
	}
}

func TestClonePreservesDependenceShape(t *testing.T) {
	p := Collect(specStream("gcc", 50_000, 42), 0)
	clone := Collect(NewClone(p, 50_000, 99), 0)
	// Compare the short-distance mass (the ILP-relevant part).
	shortMass := func(pr *Profile) float64 {
		var short, total uint64
		for d := 1; d <= 8; d++ {
			short += pr.DepDist[d]
		}
		for d := range pr.DepDist {
			total += pr.DepDist[d]
		}
		if total == 0 {
			return 0
		}
		return float64(short) / float64(total)
	}
	if o, g := shortMass(p), shortMass(clone); math.Abs(o-g) > 0.1 {
		t.Fatalf("short-dependence mass: original %.3f clone %.3f", o, g)
	}
}

func TestClonePreservesBranchPredictability(t *testing.T) {
	p := Collect(specStream("gcc", 50_000, 42), 0)
	clone := Collect(NewClone(p, 50_000, 99), 0)
	if math.Abs(p.RepeatRate()-clone.RepeatRate()) > 0.1 {
		t.Fatalf("repeat rate: original %.3f clone %.3f", p.RepeatRate(), clone.RepeatRate())
	}
}

// ipcOf runs a stream through a fresh single-core interval machine,
// functionally warming caches and predictors with the stream's first warm
// instructions so the measurement reflects steady state rather than
// cold-start misses (clones are short by design, so cold-start would
// otherwise dominate them).
func ipcOf(t *testing.T, src trace.Stream, warm, n int) float64 {
	t.Helper()
	m := config.Default(1)
	mem := memhier.New(1, m.Mem, memhier.Perfect{})
	bp := branch.NewUnit(m.Branch)
	for _, in := range trace.Record(src, warm) {
		if in.Class.IsSync() {
			continue
		}
		mem.Inst(0, in.PC, 0)
		if in.Class.IsBranch() {
			bp.Predict(&in)
		}
		if in.Class.IsMem() {
			mem.Data(0, in.Addr, in.Class == isa.Store, 0)
		}
	}
	mem.ResetStats()
	bp.ResetStats()
	c := core.New(0, m.Core, bp, mem, trace.NewLimit(src, n), sim.NullSyncer{})
	var now int64
	for !c.Done() {
		c.Step(now)
		now++
		if now > 100_000_000 {
			t.Fatal("run did not finish")
		}
	}
	return c.IPC()
}

// TestCloneTracksIPC is the payoff property of statistical simulation: a
// clone one-fifth the size predicts the original's steady-state IPC within
// a modest error. (The literature reports single-digit percentage errors
// with far richer profiles; the bar here is deliberately loose.)
func TestCloneTracksIPC(t *testing.T) {
	for _, name := range []string{"gcc", "swim", "mcf"} {
		const n = 60_000
		const warm = 20_000
		orig := ipcOf(t, specStream(name, n+warm, 42), warm, n)
		p := CollectWarm(specStream(name, n+warm, 42), warm, 0)
		cl := ipcOf(t, NewClone(p, warm+n/5, 99), warm, n/5)
		relErr := math.Abs(orig-cl) / orig
		t.Logf("%s: original IPC %.3f, clone IPC %.3f (err %.1f%%)", name, orig, cl, 100*relErr)
		if relErr > 0.35 {
			t.Errorf("%s: clone IPC error %.1f%% too large", name, 100*relErr)
		}
	}
}

func TestCloneOnEmptyProfile(t *testing.T) {
	p := Collect(trace.NewSliceStream(nil), 0)
	got := trace.Record(NewClone(p, 100, 1), 200)
	if len(got) != 100 {
		t.Fatalf("clone of empty profile produced %d instructions", len(got))
	}
}
