package ooo

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/memhier"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestDiagnoseIssue logs occupancy of back-end structures for a deep-chain
// FP profile with all miss sources disabled (dispatch-rate calibration).
func TestDiagnoseIssue(t *testing.T) {
	p := workload.SPECByName("galgel")
	m := config.Default(1)
	m.Branch.Kind = "perfect"
	mem := memhier.New(1, m.Mem, memhier.Perfect{ISide: true, DSide: true})
	bp := branch.NewUnit(m.Branch)
	gen := workload.New(p, 0, 1, 42)
	c := New(0, m.Core, bp, mem, trace.NewLimit(gen, 50_000), sim.NullSyncer{})
	var now, robSum, iqSum, fqSum int64
	for !c.Done() {
		c.Step(now)
		robSum += int64(len(c.rob))
		iqSum += int64(len(c.iq))
		fqSum += int64(len(c.fetchPending))
		now++
	}
	t.Logf("IPC=%.3f avgROB=%.1f avgIQ=%.1f avgFQ=%.1f dispatchStalls=%d cycles=%d",
		c.IPC(), float64(robSum)/float64(now), float64(iqSum)/float64(now),
		float64(fqSum)/float64(now), c.DispatchStall, now)
}

// TestDiagnoseWindow scales back-end structures to find the binding
// resource for the all-perfect swim run.
func TestDiagnoseWindow(t *testing.T) {
	for _, scale := range []int{1, 2, 4} {
		p := workload.SPECByName("galgel")
		m := config.Default(1)
		m.Branch.Kind = "perfect"
		m.Core.ROBSize *= scale
		m.Core.IssueQueueSize *= scale
		m.Core.LSQSize *= scale
		mem := memhier.New(1, m.Mem, memhier.Perfect{ISide: true, DSide: true})
		bp := branch.NewUnit(m.Branch)
		gen := workload.New(p, 0, 1, 42)
		c := New(0, m.Core, bp, mem, trace.NewLimit(gen, 50_000), sim.NullSyncer{})
		var now int64
		for !c.Done() {
			c.Step(now)
			now++
		}
		t.Logf("scale=%d ROB=%d: IPC=%.3f", scale, m.Core.ROBSize, c.IPC())
	}
}

// TestDiagnoseOracle computes the unconstrained dataflow IPC (infinite
// window, infinite width) as ground truth for the dispatch-rate model.
func TestDiagnoseOracle(t *testing.T) {
	p := workload.SPECByName("galgel")
	m := config.Default(1)
	gen := workload.New(p, 0, 1, 42)
	var ready [64]int64
	var makespan int64
	n := 0
	for _, in := range trace.Record(gen, 50_000) {
		n++
		var issue int64
		if in.Src1 != 0xFF && ready[in.Src1] > issue {
			issue = ready[in.Src1]
		}
		if in.Src2 != 0xFF && ready[in.Src2] > issue {
			issue = ready[in.Src2]
		}
		complete := issue + int64(m.Core.ExecLatency(in.Class))
		if in.Dst != 0xFF {
			ready[in.Dst] = complete
		}
		if complete > makespan {
			makespan = complete
		}
	}
	t.Logf("oracle dataflow: n=%d makespan=%d ILP-IPC=%.3f", n, makespan, float64(n)/float64(makespan))
}

// TestDiagnoseIssueBlock classifies why IQ entries do not issue.
func TestDiagnoseIssueBlock(t *testing.T) {
	p := workload.SPECByName("galgel")
	m := config.Default(1)
	m.Branch.Kind = "perfect"
	mem := memhier.New(1, m.Mem, memhier.Perfect{ISide: true, DSide: true})
	bp := branch.NewUnit(m.Branch)
	gen := workload.New(p, 0, 1, 42)
	c := New(0, m.Core, bp, mem, trace.NewLimit(gen, 50_000), sim.NullSyncer{})
	var now int64
	var notReady, widthBlocked, fuBlocked, issuedTot int64
	for !c.Done() {
		// Classify before stepping (state at start of cycle).
		ready := 0
		for _, seq := range c.iq {
			e := c.entryBySeq(seq)
			if e == nil {
				continue
			}
			if c.srcReady(e.prod1, now) && c.srcReady(e.prod2, now) {
				ready++
			} else {
				notReady++
			}
		}
		if ready > c.cfg.IssueWidth {
			widthBlocked += int64(ready - c.cfg.IssueWidth)
		}
		_ = fuBlocked
		issuedTot += int64(min(ready, c.cfg.IssueWidth))
		c.Step(now)
		now++
	}
	t.Logf("IPC=%.3f notReadySum=%d widthBlockedSum=%d approxIssuable=%.2f/cyc",
		c.IPC(), notReady, widthBlocked, float64(issuedTot)/float64(now))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
