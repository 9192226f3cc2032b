package noc

// Bus is the Table 1 baseline fabric: a shared split-transaction bus
// between the private L1s and the shared L2/snoop point. Every L1-miss
// transaction (L2 access, coherence broadcast, intervention) takes a fixed
// hop latency and occupies the bus for a configurable number of cycles, so
// co-running cores contend for a finite transaction bandwidth. A
// transaction issued at time t completes its request phase after
// max(t, busFree) - t queueing plus the hop latency.
type Bus struct {
	hop       int64
	occupancy int64
	busFree   int64

	Stats
}

// NewBus creates a bus with the given hop latency (cycles from a core to
// the L2/snoop point) and per-transaction occupancy (address/snoop slot
// width).
func NewBus(hopLatency, occupancy int) *Bus {
	if occupancy < 1 {
		occupancy = 1
	}
	return &Bus{hop: int64(hopLatency), occupancy: int64(occupancy)}
}

// AccessFrom implements Fabric. The bus is symmetric, so the requesting
// core is irrelevant.
func (b *Bus) AccessFrom(_ int, now int64) int64 {
	b.Transactions++
	b.HopTotal++
	start := max(now, b.busFree)
	b.StallTotal += start - now
	b.busFree = start + b.occupancy
	b.BusyTotal += b.occupancy
	return (start - now) + b.hop
}

// Utilization implements Fabric.
func (b *Bus) Utilization(now int64) float64 { return b.Stats.utilization(1, now) }

// ResetStats implements Fabric.
func (b *Bus) ResetStats() {
	b.busFree = 0
	b.Stats = Stats{}
}

var _ Fabric = (*Bus)(nil)
