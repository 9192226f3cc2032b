package sampling

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/multicore"
	"repro/internal/statsim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// counting wraps a stream and counts the instructions handed out.
type counting struct {
	s    trace.Stream
	read int
}

func (c *counting) NextBatch(buf []isa.Inst) int {
	k := c.s.NextBatch(buf)
	c.read += k
	return k
}

func gccStream(seed int64) *counting {
	return &counting{s: workload.New(workload.SPECByName("gcc"), 0, 1, seed)}
}

// TestWarmersStayWithinCounts: the functional warmers and the sampling
// harness consume exactly the instruction counts they are given, never a
// chunk more, so a stream the caller continues from is not over-read.
func TestWarmersStayWithinCounts(t *testing.T) {
	m := config.Default(2)
	for _, n := range []int{0, 1, 4095, 4096, 10_001} {
		a, b := gccStream(1), gccStream(2)
		mem := memhier.New(2, m.Mem, memhier.Perfect{})
		bps := []*branch.Unit{branch.NewUnit(m.Branch), branch.NewUnit(m.Branch)}
		if got := multicore.Warmup(mem, bps, []trace.Stream{a, b}, n); got != n {
			t.Errorf("Warmup(%d) reported %d consumed", n, got)
		}
		if a.read != n || b.read != n {
			t.Errorf("Warmup(%d) read %d and %d instructions", n, a.read, b.read)
		}
	}

	short := &counting{s: trace.NewLimit(gccStream(3), 700)}
	mem := memhier.New(1, m.Mem, memhier.Perfect{})
	if got := multicore.Warmup(mem, []*branch.Unit{branch.NewUnit(m.Branch)}, []trace.Stream{short}, 1000); got != 700 {
		t.Errorf("Warmup over a 700-instruction stream reported %d consumed", got)
	}

	src := gccStream(4)
	statsim.CollectWarm(src, 3_000, 5_000)
	if src.read != 8_000 {
		t.Errorf("CollectWarm(warm 3000, max 5000) read %d instructions", src.read)
	}

	for _, model := range []multicore.Model{multicore.Interval, multicore.Detailed} {
		src := gccStream(5)
		cfg := Config{Unit: 1_000, Period: 4_000, InitialWarmup: 2_500, Model: model, Machine: config.Default(1)}
		if _, err := Run(cfg, src, 21_500); err != nil {
			t.Fatal(err)
		}
		if src.read != 2_500+21_500 {
			t.Errorf("%v: Run(initial warmup 2500, total 21500) read %d instructions", model, src.read)
		}
	}
}
