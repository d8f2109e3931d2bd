// Package netsim implements the packet-level LogGOPS network model of the
// paper's simulation environment (§4.2): message injection with overhead o,
// inter-message gap g, inter-byte gap G, MTU-sized packetization, fat-tree
// latency, and the NIC's hardware matching unit (30 ns full match for header
// packets, 2 ns CAM lookups for the rest). It replaces LogGOPSim in the
// paper's toolchain.
package netsim

import (
	"fmt"

	"repro/internal/fattree"
	"repro/internal/membus"
	"repro/internal/sim"
)

// Params holds every model constant of the simulated system. The defaults
// come straight from §4.2/§4.3 of the paper.
type Params struct {
	// O is the (non-parallelizable) injection overhead per message charged
	// on the initiating CPU.
	O sim.Time
	// Gap is g, the minimum inter-packet/message gap at a NIC (message
	// rate 150 M msg/s).
	Gap sim.Time
	// GFemtoPerByte is G, the inter-byte gap. The paper's derived numbers
	// (g/G = 335 B crossover, 50 GiB/s line rate) fix G = 20 ps/B.
	GFemtoPerByte int64
	// MTU is the maximum packet payload.
	MTU int
	// HeaderMatch is the matching-unit time for a header packet searching
	// the full match list.
	HeaderMatch sim.Time
	// CAMLookup is the per-packet channel lookup once a message's channel
	// is installed in the CAM.
	CAMLookup sim.Time
	// NumHPUs is the number of handler processing units per NIC.
	NumHPUs int
	// HPUThreads is the number of hardware thread contexts per HPU: the
	// massive multithreading of §4.1 that lets the runtime deschedule
	// handlers blocked on DMA and keep the execution units busy. Compute
	// cycles still serialize on the NumHPUs cores.
	HPUThreads int
	// HPUCycle is one HPU clock cycle (2.5 GHz => 400 ps).
	HPUCycle sim.Time
	// FlowDeadline is how long a packet may wait for a free HPU before
	// the portal enters flow control and the packet is dropped.
	FlowDeadline sim.Time
	// DMA is the host-memory bus configuration (discrete or integrated).
	DMA membus.Config
	// Topo computes pairwise latency.
	Topo *fattree.Topology

	// Host CPU model (§4.2): 8 Haswell cores at 2.5 GHz, DRAM 51 ns /
	// 150 GiB/s.
	HostCores         int
	HostCycle         sim.Time
	DRAMLatency       sim.Time
	MemCopyFemtoPerB  int64 // per byte moved (read+write counted separately)
	HostMatchPerEntry sim.Time
	HostPollCost      sim.Time
}

// base returns the parameters shared by both NIC variants.
func base() Params {
	return Params{
		O:                 65 * sim.Nanosecond,
		Gap:               6700 * sim.Picosecond,
		GFemtoPerByte:     20000, // 20 ps/B = 50 GiB/s
		MTU:               4096,
		HeaderMatch:       30 * sim.Nanosecond,
		CAMLookup:         2 * sim.Nanosecond,
		NumHPUs:           4,
		HPUThreads:        4,
		HPUCycle:          400 * sim.Picosecond,
		FlowDeadline:      2 * sim.Microsecond,
		Topo:              fattree.Default(),
		HostCores:         8,
		HostCycle:         400 * sim.Picosecond,
		DRAMLatency:       51 * sim.Nanosecond,
		MemCopyFemtoPerB:  6700, // 150 GiB/s
		HostMatchPerEntry: 10 * sim.Nanosecond,
		HostPollCost:      20 * sim.Nanosecond,
	}
}

// Integrated returns the on-chip NIC configuration ("int" in the figures).
func Integrated() Params {
	p := base()
	p.DMA = membus.Integrated()
	return p
}

// Discrete returns the PCIe-attached NIC configuration ("dis").
func Discrete() Params {
	p := base()
	p.DMA = membus.Discrete()
	return p
}

// ParseNIC resolves a NIC name as the CLIs' -nic flag spells it: "int"
// (Integrated) or "dis" (Discrete). Any other value is an error naming the
// valid ones, never a silent fallback.
func ParseNIC(name string) (Params, error) {
	switch name {
	case "int":
		return Integrated(), nil
	case "dis":
		return Discrete(), nil
	}
	return Params{}, fmt.Errorf("unknown NIC %q (valid: int, dis)", name)
}

// GBytes returns the wire serialization time of n bytes.
func (p *Params) GBytes(n int) sim.Time {
	return sim.Time(int64(n) * p.GFemtoPerByte / 1000)
}

// PacketOccupancy returns the egress occupancy of one packet: a NIC can
// inject at most one packet per g and cannot exceed line rate.
func (p *Params) PacketOccupancy(n int) sim.Time {
	occ := p.GBytes(n)
	if occ < p.Gap {
		occ = p.Gap
	}
	return occ
}

// Packets returns the number of packets a message of n payload bytes needs.
// A zero-byte message is a lone header packet.
func (p *Params) Packets(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + p.MTU - 1) / p.MTU
}

// MemCopy returns the host-CPU time to copy n bytes (read + write pass over
// DRAM at 150 GiB/s each).
func (p *Params) MemCopy(n int) sim.Time {
	return sim.Time(2 * int64(n) * p.MemCopyFemtoPerB / 1000)
}

// MemTouch returns the host-CPU time for a single pass (read or write) over
// n bytes of DRAM.
func (p *Params) MemTouch(n int) sim.Time {
	return sim.Time(int64(n) * p.MemCopyFemtoPerB / 1000)
}
