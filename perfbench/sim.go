package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/simrun"
)

// sim is the simulated outcome of one run (or a sum of runs): what the
// modelled machine did. It is compared for equality across repetitions.
type sim struct {
	cycles  int64
	retired uint64
	stack   core.CPIStack // interval cores only
	l1dMiss uint64
	l2Miss  uint64
	longLat uint64
	dram    uint64
	banked  uint64 // DRAM requests served by the banked model
	rowHits uint64
	invals  uint64
}

func simOf(res simrun.Result) sim {
	s := sim{cycles: res.Cycles, retired: res.TotalRetired}
	for _, c := range res.Sim {
		if ic, ok := c.(*core.Core); ok {
			st := ic.Stack()
			s.stack.Retired += st.Retired
			s.stack.Base += st.Base
			s.stack.ICache += st.ICache
			s.stack.Branch += st.Branch
			s.stack.LongLoad += st.LongLoad
			s.stack.Serialize += st.Serialize
			s.stack.Sync += st.Sync
		}
	}
	if m := res.Mem; m != nil {
		for i := range res.Cores {
			s.l1dMiss += m.L1D(i).Misses
		}
		if l2 := m.L2(); l2 != nil {
			s.l2Miss = l2.Misses
		}
		s.longLat = m.Stats().LongLatency
		s.dram = m.DRAM().Stats().Requests
		if bk, ok := m.DRAM().(*memory.Banked); ok {
			s.banked, s.rowHits = bk.Requests, bk.RowHits
		}
		if c := m.Coherence(); c != nil {
			s.invals = c.Stats().Invalidations
		}
	}
	return s
}

func (s *sim) add(o sim) {
	s.cycles += o.cycles
	s.retired += o.retired
	s.stack.Retired += o.stack.Retired
	s.stack.Base += o.stack.Base
	s.stack.ICache += o.stack.ICache
	s.stack.Branch += o.stack.Branch
	s.stack.LongLoad += o.stack.LongLoad
	s.stack.Serialize += o.stack.Serialize
	s.stack.Sync += o.stack.Sync
	s.l1dMiss += o.l1dMiss
	s.l2Miss += o.l2Miss
	s.longLat += o.longLat
	s.dram += o.dram
	s.banked += o.banked
	s.rowHits += o.rowHits
	s.invals += o.invals
}

func (s sim) ipc() float64 { return ratio(float64(s.retired), float64(s.cycles)) }

func (s sim) String() string {
	return fmt.Sprintf("cycles=%d retired=%d stack=%d/%d/%d/%d/%d/%d l1d=%d l2=%d long=%d dram=%d banked=%d rowhit=%d inval=%d",
		s.cycles, s.retired, s.stack.Base, s.stack.ICache, s.stack.Branch, s.stack.LongLoad, s.stack.Serialize, s.stack.Sync,
		s.l1dMiss, s.l2Miss, s.longLat, s.dram, s.banked, s.rowHits, s.invals)
}

// metrics are the simulated per-layer statistics of the summed runs.
func (s sim) metrics() []metric {
	ki := float64(s.retired) / 1000
	st := s.stack
	return []metric{
		one("core.cpi_base", "cycles", ratio(float64(st.Base), float64(st.Retired))),
		one("core.cpi_branch", "cycles", ratio(float64(st.Branch), float64(st.Retired))),
		one("core.cpi_icache", "cycles", ratio(float64(st.ICache), float64(st.Retired))),
		one("core.cpi_longload", "cycles", ratio(float64(st.LongLoad), float64(st.Retired))),
		one("memhier.l1d_mpki", "1/kinst", ratio(float64(s.l1dMiss), ki)),
		one("memhier.l2_mpki", "1/kinst", ratio(float64(s.l2Miss), ki)),
		one("memhier.long_latency_pki", "1/kinst", ratio(float64(s.longLat), ki)),
		one("coherence.invalidations_pki", "1/kinst", ratio(float64(s.invals), ki)),
		one("memory.dram_requests_pki", "1/kinst", ratio(float64(s.dram), ki)),
		one("memory.row_hit_rate", "fraction", ratio(float64(s.rowHits), float64(s.banked))),
	}
}
