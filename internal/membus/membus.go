// Package membus models host-memory access from the NIC — the paper's §4.3
// "DMA and Memory Contention". Each host owns one Bus: for a discrete NIC the
// bus is the PCIe path through the north-bridge; for an integrated NIC it is
// the on-chip memory controller. Transactions are modelled as a LogGP system
// with o = g = 0 (those costs are charged by the HPU/CPU model that initiates
// the request) and configuration-dependent L and G:
//
//	discrete (PCIe 4 x32):  L = 250 ns, G = 15.6 ps/B (64 GiB/s)
//	integrated (mem ctrl):  L =  50 ns, G =  6.7 ps/B (150 GiB/s)
//
// Contention: the bus serializes the data-occupancy (G·size) of concurrent
// transactions on a busy-until timeline; latency L pipelines with other
// transactions' occupancy, as on a real credit-based interconnect.
//
// Per the paper's trace diagrams (App. C.3.2), a blocking DMA *read* holds
// the issuing HPU for two bus latencies (request + response) plus the data
// transfer; a blocking *write* holds it only for the initiation (posted
// write), with the data landing L later.
package membus

import "repro/internal/sim"

// Config selects discrete vs integrated NIC attachment (§4.3).
type Config struct {
	Name string
	// L is the one-way bus latency.
	L sim.Time
	// GFemtoPerByte is the inter-byte gap (inverse bandwidth) in
	// femtoseconds per byte; sub-picosecond resolution is needed because
	// the paper's 6.7 ps/B and 15.6 ps/B are fractional.
	GFemtoPerByte int64
	// MinTransaction is the minimum bus occupancy of any transaction,
	// modelling per-TLP/descriptor overhead. Small strided DMA writes are
	// dominated by this term (Fig. 7a, left side).
	MinTransaction sim.Time
}

// Discrete returns the PCIe-attached (discrete NIC) configuration.
func Discrete() Config {
	return Config{
		Name:           "dis",
		L:              250 * sim.Nanosecond,
		GFemtoPerByte:  15600, // 15.6 ps/B = 64 GiB/s
		MinTransaction: 8 * sim.Nanosecond,
	}
}

// Integrated returns the on-chip memory-controller configuration.
func Integrated() Config {
	return Config{
		Name:           "int",
		L:              50 * sim.Nanosecond,
		GFemtoPerByte:  6700, // 6.7 ps/B = 150 GiB/s
		MinTransaction: 8 * sim.Nanosecond,
	}
}

// Occupancy returns the bus occupancy of a transaction of n bytes.
func (c Config) Occupancy(n int) sim.Time {
	occ := sim.Time(int64(n) * c.GFemtoPerByte / 1000)
	if occ < c.MinTransaction {
		occ = c.MinTransaction
	}
	return occ
}

// Bus is one host's NIC<->memory path. It is shared by every DMA initiator
// on that host (all HPUs plus the NIC's own delivery engine), which is what
// creates the contention the paper highlights.
type Bus struct {
	Config
	res *sim.Intervals
	// Transactions counts issued transactions, for tests and stats.
	Transactions uint64
	// BytesMoved counts payload bytes, for bandwidth accounting.
	BytesMoved uint64
}

// New returns an idle bus with the given configuration. clock is the
// engine that runs the host's events: no transaction starts before its
// Now, so the bus's timeline forgets the transactions that ended before it.
func New(cfg Config, clock *sim.Engine) *Bus {
	return &Bus{Config: cfg, res: sim.NewIntervals("membus-"+cfg.Name, clock)}
}

// Reset returns the bus to its post-construction (idle) state.
func (b *Bus) Reset() {
	b.res.Reset()
	b.Transactions = 0
	b.BytesMoved = 0
}

// Write issues a posted write of n bytes at time now. It returns the instant
// the initiator is released (initiation only) and the instant the data is
// globally visible in host memory.
func (b *Bus) Write(now sim.Time, n int) (initiatorFree, visible sim.Time) {
	occ := b.Occupancy(n)
	start := b.res.Acquire(now, occ)
	b.Transactions++
	b.BytesMoved += uint64(n)
	return start + occ, start + occ + b.L
}

// Read issues a blocking read of n bytes at time now and returns the instant
// the data is available to the initiator: request latency + response latency
// + transfer, i.e. the "two DMA latencies" of the paper's accumulate traces.
func (b *Bus) Read(now sim.Time, n int) (dataReady sim.Time) {
	occ := b.Occupancy(n)
	start := b.res.Acquire(now+b.L, occ) // request travels L before data moves
	b.Transactions++
	b.BytesMoved += uint64(n)
	return start + occ + b.L
}

// Atomic issues a read-modify-write (CAS / fetch-add over the bus). It
// behaves like a small read followed by a small write without releasing the
// bus in between.
func (b *Bus) Atomic(now sim.Time, n int) (done sim.Time) {
	occ := 2 * b.Occupancy(n)
	start := b.res.Acquire(now+b.L, occ)
	b.Transactions++
	b.BytesMoved += uint64(2 * n)
	return start + occ + b.L
}

// Held returns the number of reserved spans the bus's timeline holds.
func (b *Bus) Held() int { return b.res.Held() }

// FreeAt returns when the bus next goes idle.
func (b *Bus) FreeAt() sim.Time { return b.res.FreeAt() }

// Utilization reports the busy fraction of [0, now].
func (b *Bus) Utilization(now sim.Time) float64 { return b.res.Utilization(now) }
