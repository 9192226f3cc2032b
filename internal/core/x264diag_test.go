package core

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memhier"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestDiagnoseX264(t *testing.T) {
	p := workload.PARSECByName("x264")
	q := *p
	q.TotalWork = 300_000
	m := config.Default(1)
	mem := memhier.New(1, m.Mem, memhier.Perfect{})
	bp := branch.NewUnit(m.Branch)
	warm := workload.New(&q, 0, 1, 1042)
	for _, in := range trace.Record(warm, 600_000) {
		if in.Class.IsMem() {
			mem.Data(0, in.Addr, in.Class == isa.Store, 0)
		}
		if in.Class.IsBranch() {
			bp.Predict(&in)
		}
	}
	mem.ResetStats()
	bp.ResetStats()
	c := New(0, m.Core, bp, mem, workload.New(&q, 0, 1, 42), sim.NullSyncer{})
	var now int64
	for !c.Done() {
		c.Step(now)
		now++
	}
	t.Logf("IPC=%.3f LLcharged=%d LLoverlapped=%d scanBreaks=%d hidden=%d longLat(total)=%d",
		c.IPC(), c.LongLoadEvents, c.OverlapLL, c.ScanBreaks, c.OverlapHidden, mem.Stats().LongLatency)
}
