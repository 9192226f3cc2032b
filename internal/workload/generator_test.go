package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/trace"
)

func TestDeterminism(t *testing.T) {
	p := SPECByName("gcc")
	a := trace.Record(New(p, 0, 1, 42), 10_000)
	b := trace.Record(New(p, 0, 1, 42), 10_000)
	if len(a) != len(b) {
		t.Fatalf("streams end at different points: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDifferentSeedsSameStaticProgram(t *testing.T) {
	p := SPECByName("gcc")
	a := New(p, 0, 1, 42)
	b := New(p, 0, 1, 777)
	// The PCs visited must come from the same static program: collect the
	// PC sets and require heavy overlap (identical CFG, different paths).
	pcs := func(g *Generator) map[uint64]bool {
		set := map[uint64]bool{}
		for _, in := range trace.Record(g, 20_000) {
			set[in.PC] = true
		}
		return set
	}
	pa, pb := pcs(a), pcs(b)
	common := 0
	for pc := range pa {
		if pb[pc] {
			common++
		}
	}
	// Different dynamic paths visit different parts of the (identical)
	// CFG, so the overlap is well below 1 but far above what two
	// different random programs would share.
	if frac := float64(common) / float64(len(pa)); frac < 0.2 {
		t.Fatalf("only %.0f%% of PCs shared between seeds: static program differs", 100*frac)
	}
}

func TestMixApproximatelyHonored(t *testing.T) {
	p := SPECByName("gcc")
	g := New(p, 0, 1, 42)
	var st trace.Stats
	for _, in := range trace.Record(g, 100_000) {
		st.Observe(&in)
	}
	// Loads: profile says 26% of non-branch instructions.
	loadFrac := st.Frac(isa.Load)
	if loadFrac < 0.1 || loadFrac > 0.4 {
		t.Errorf("load fraction %.3f implausible", loadFrac)
	}
	branchFrac := float64(st.Branches) / float64(st.Total)
	if branchFrac < 0.05 || branchFrac > 0.3 {
		t.Errorf("branch fraction %.3f implausible", branchFrac)
	}
}

func TestBranchTargetsConsistent(t *testing.T) {
	p := SPECByName("bzip2")
	g := New(p, 0, 1, 42)
	for i, in := range trace.Record(g, 50_000) {
		if in.Class.IsBranch() && in.Taken && in.Target == 0 {
			t.Fatalf("taken branch with zero target at %d", i)
		}
	}
}

func TestRegistersInRange(t *testing.T) {
	p := SPECByName("mcf")
	g := New(p, 0, 1, 42)
	for _, in := range trace.Record(g, 50_000) {
		for _, r := range []uint8{in.Src1, in.Src2, in.Dst} {
			if r != isa.RegNone && r >= isa.NumRegs {
				t.Fatalf("register %d out of range", r)
			}
		}
	}
}

func TestThreadsPrivateRegionsDisjoint(t *testing.T) {
	p := PARSECByName("blackscholes")
	a := New(p, 0, 4, 42)
	b := New(p, 1, 4, 42)
	seen := map[uint64]int{}
	collect := func(g *Generator, id int) {
		for _, in := range trace.Record(g, 30_000) {
			if in.Class.IsMem() {
				seen[in.Addr>>24] |= 1 << id
			}
		}
	}
	collect(a, 0)
	collect(b, 1)
	shared := 0
	for _, mask := range seen {
		if mask == 3 {
			shared++
		}
	}
	// The shared region overlaps by construction; the private ones must
	// not. blackscholes has one small shared region, so only a small
	// number of high-address prefixes may be common.
	if shared > len(seen)/2 {
		t.Fatalf("%d/%d address prefixes shared between threads", shared, len(seen))
	}
}

func TestSharedRegionVisibleToAllThreads(t *testing.T) {
	p := PARSECByName("canneal")
	addrsIn := func(thread int) map[uint64]bool {
		g := New(p, thread, 2, 42)
		set := map[uint64]bool{}
		for _, in := range trace.Record(g, 60_000) {
			if in.Class.IsMem() {
				set[in.Addr>>30] = true
			}
		}
		return set
	}
	a, b := addrsIn(0), addrsIn(1)
	common := false
	for k := range a {
		if b[k] {
			common = true
		}
	}
	if !common {
		t.Fatal("no shared address ranges between threads of a sharing profile")
	}
}

func TestBarrierCountsMatchAcrossThreads(t *testing.T) {
	p := PARSECByName("streamcluster")
	counts := make([]int, 4)
	for th := 0; th < 4; th++ {
		g := New(p, th, 4, 42)
		rd := trace.NewBuffered(g, 1024)
		for {
			in, ok := rd.Next()
			if !ok {
				break
			}
			if in.Class == isa.BarrierArrive {
				counts[th]++
			}
		}
	}
	for th := 1; th < 4; th++ {
		if d := counts[th] - counts[0]; d < -1 || d > 1 {
			t.Fatalf("barrier counts diverge: %v", counts)
		}
	}
	if counts[0] == 0 {
		t.Fatal("no barriers emitted")
	}
}

func TestLocksBalanced(t *testing.T) {
	p := PARSECByName("fluidanimate")
	g := New(p, 0, 2, 42)
	depth := 0
	var acquires, releases int
	rd := trace.NewBuffered(g, 1024)
	for {
		in, ok := rd.Next()
		if !ok {
			break
		}
		switch in.Class {
		case isa.LockAcquire:
			acquires++
			depth++
			if depth > 1 {
				t.Fatal("nested lock acquire")
			}
		case isa.LockRelease:
			releases++
			depth--
			if depth < 0 {
				t.Fatal("release without acquire")
			}
		}
	}
	if acquires == 0 {
		t.Fatal("no locks emitted by a lock-heavy profile")
	}
	if d := acquires - releases; d < 0 || d > 1 {
		t.Fatalf("acquires=%d releases=%d unbalanced", acquires, releases)
	}
}

// drain runs g to the end of its budget.
func drain(g *Generator) {
	buf := make([]isa.Inst, 4096)
	for g.NextBatch(buf) > 0 {
	}
}

func TestTotalWorkSplit(t *testing.T) {
	p := PARSECByName("swaptions")
	var total uint64
	for th := 0; th < 4; th++ {
		g := New(p, th, 4, 42)
		drain(g)
		total += g.Emitted
	}
	// Within a few percent of TotalWork (sync instructions add a little).
	ratio := float64(total) / float64(p.TotalWork)
	if ratio < 0.95 || ratio > 1.10 {
		t.Fatalf("total emitted %d vs TotalWork %d (ratio %.3f)", total, p.TotalWork, ratio)
	}
}

func TestSerialFracLimitsScaling(t *testing.T) {
	p := PARSECByName("vips")
	work := func(threads int) (max uint64) {
		for th := 0; th < threads; th++ {
			g := New(p, th, threads, 42)
			drain(g)
			if g.Emitted > max {
				max = g.Emitted
			}
		}
		return max
	}
	w2, w8 := work(2), work(8)
	// Thread 0 holds SerialFrac of the work; the slowest thread's load
	// barely shrinks from 2 to 8 threads.
	if float64(w8) < 0.8*float64(w2) {
		t.Fatalf("serial-stage work shrank too much: %d -> %d", w2, w8)
	}
}

func TestSPECProfileTable(t *testing.T) {
	ps := SPEC()
	if len(ps) != 26 {
		t.Fatalf("%d SPEC profiles, want 26", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		if names[p.Name] {
			t.Fatalf("duplicate profile %s", p.Name)
		}
		names[p.Name] = true
		var sum float64
		for _, r := range p.Regions {
			sum += r.Prob
		}
		if math.Abs(sum-1) > 0.05 {
			t.Errorf("%s: region probabilities sum to %.3f", p.Name, sum)
		}
		if p.MultiThreaded() {
			t.Errorf("%s: SPEC profile flagged multi-threaded", p.Name)
		}
	}
	if SPECByName("nonexistent") != nil {
		t.Fatal("lookup of unknown profile succeeded")
	}
}

func TestPARSECProfileTable(t *testing.T) {
	ps := PARSEC()
	if len(ps) != 9 {
		t.Fatalf("%d PARSEC profiles, want 9", len(ps))
	}
	for _, p := range ps {
		if !p.MultiThreaded() {
			t.Errorf("%s: not flagged multi-threaded", p.Name)
		}
		if p.TotalWork == 0 {
			t.Errorf("%s: no TotalWork", p.Name)
		}
		if p.SystemFrac == 0 {
			t.Errorf("%s: full-system profile without system code", p.Name)
		}
	}
	if PARSECByName("nope") != nil {
		t.Fatal("lookup of unknown profile succeeded")
	}
}

// Property: for any profile and seed, the first instructions are valid:
// classes in range, sequence numbers dense.
func TestQuickStreamWellFormed(t *testing.T) {
	profiles := SPEC()
	f := func(pi uint8, seed int64) bool {
		p := profiles[int(pi)%len(profiles)]
		insts := trace.Record(New(&p, 0, 1, seed), 2000)
		if len(insts) != 2000 {
			return false
		}
		for i, in := range insts {
			if in.Seq != uint64(i) {
				return false
			}
			if int(in.Class) >= isa.NumClasses {
				return false
			}
			if in.Class.IsMem() && in.Addr == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
