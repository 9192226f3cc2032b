// Package noc models the on-chip interconnect between the private L1
// caches and the shared L2/memory-controller hub. The paper's framework
// (Figure 2) places the interconnection network inside the memory
// hierarchy simulator; swapping fabrics is exactly the kind of
// system-level trade-off interval simulation is meant to explore without
// touching the core model.
//
// Three topologies are provided: the Table 1 split-transaction bus, a 2D
// mesh with XY dimension-order routing and a bidirectional ring. The two
// networks share one contention model: a transfer reserves each directed
// link along its route in order; a link occupied by an earlier transfer
// delays the header until it frees. This is a transaction-level
// approximation of wormhole routing — adequate for the queueing-under-load
// behaviour the evaluation studies, and deliberately far cheaper than
// flit-level simulation. The bus is the one-link case: every transaction
// queues for the same slot.
package noc

// Fabric is an on-chip interconnect connecting cores to a shared hub (the
// L2 / memory controller), as the memory hierarchy consumes it.
// AccessFrom issues a core-to-hub request transaction at time now and
// returns its latency (queueing + traversal). The response path is assumed
// to use a dedicated data network, so only the request network is
// contended.
type Fabric interface {
	// AccessFrom issues a transaction from core to the hub at time now
	// and returns its total latency in cycles.
	AccessFrom(core int, now int64) int64
	// Utilization returns the mean busy fraction across links up to now.
	Utilization(now int64) float64
	// TxCount returns the number of transactions issued.
	TxCount() uint64
	// StallCycles returns the total cycles transactions spent queueing.
	StallCycles() int64
	// ResetStats clears statistics and pending link occupancy.
	ResetStats()
}

// Stats aggregates the counters shared by all topologies.
type Stats struct {
	// Transactions counts AccessFrom calls.
	Transactions uint64
	// HopTotal is the total number of link traversals.
	HopTotal uint64
	// StallTotal is the total cycles transfers spent waiting for links.
	StallTotal int64
	// BusyTotal is the total link-busy cycles across all links.
	BusyTotal int64
}

// TxCount returns the number of transactions issued.
func (s Stats) TxCount() uint64 { return s.Transactions }

// StallCycles returns the total cycles transfers spent queueing.
func (s Stats) StallCycles() int64 { return s.StallTotal }

// AvgHops returns the mean route length in links per transaction.
func (s Stats) AvgHops() float64 {
	if s.Transactions == 0 {
		return 0
	}
	return float64(s.HopTotal) / float64(s.Transactions)
}

// AvgStall returns the mean queueing delay per transaction in cycles.
func (s Stats) AvgStall() float64 {
	if s.Transactions == 0 {
		return 0
	}
	return float64(s.StallTotal) / float64(s.Transactions)
}

// utilization is the shared busy-fraction computation: BusyTotal spread
// over nlinks links for now cycles.
func (s Stats) utilization(nlinks int, now int64) float64 {
	if now <= 0 || nlinks <= 0 {
		return 0
	}
	return float64(s.BusyTotal) / (float64(nlinks) * float64(now))
}
