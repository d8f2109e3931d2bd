// Package spin is the public API of this repository: a complete Go
// implementation of sPIN — streaming Processing In the Network (Hoefler et
// al., SC'17) — together with the simulation substrate needed to run it:
// a packet-level LogGOPS network (the paper's LogGOPSim role), a
// cycle-cost HPU model (the gem5 role), and a Portals 4 layer with the
// P4sPIN extensions.
//
// The flow mirrors the paper's programming model:
//
//	cluster, _ := spin.NewCluster(2, spin.IntegratedNIC())
//	ni := cluster.NI(1)                       // target rank
//	ni.PTAlloc(0, nil)                        // portal table entry
//	mem, _ := ni.RT.AllocHPUMem(64)           // PtlHPUAllocMem
//	ni.MEAppend(0, &spin.ME{                  // PtlMEAppend + handlers
//	    Start:    hostBuffer,
//	    HPUMem:   mem,
//	    Handlers: spin.HandlerSet{Payload: myPayloadHandler},
//	}, spin.PriorityList)
//	cluster.NI(0).Put(0, spin.PutArgs{...})   // PtlPut
//	cluster.Run()                             // run the simulation
//
// Handlers are ordinary Go functions with the signatures of Appendix B;
// inside a handler the *spin.Ctx exposes the handler actions (DMA to/from
// host memory, put from device/host, HPU and host atomics, counters).
package spin

import (
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/portals"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// Time is simulated time in picoseconds.
type Time = sim.Time

// Time unit constants.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Params holds every model parameter (§4.2/§4.3 of the paper).
type Params = netsim.Params

// IntegratedNIC returns the on-chip NIC configuration: DMA L = 50 ns at
// 150 GiB/s.
func IntegratedNIC() Params { return netsim.Integrated() }

// DiscreteNIC returns the PCIe NIC configuration: DMA L = 250 ns at
// 64 GiB/s.
func DiscreteNIC() Params { return netsim.Discrete() }

// Handler programming model (Appendix B).
type (
	// Ctx is the handler execution context (actions + cycle accounting).
	Ctx = core.Ctx
	// Header is the header-handler argument (ptl_header_t).
	Header = core.Header
	// Payload is the payload-handler argument (ptl_payload_t).
	Payload = core.Payload
	// HandlerSet bundles the header/payload/completion handlers of an ME.
	HandlerSet = core.HandlerSet
	// HeaderRC is a header handler return code.
	HeaderRC = core.HeaderRC
	// PayloadRC is a payload handler return code.
	PayloadRC = core.PayloadRC
	// CompletionRC is a completion handler return code.
	CompletionRC = core.CompletionRC
	// HPUMem is NIC scratchpad memory shared between handlers.
	HPUMem = core.HPUMem
	// MemSpace selects ME host memory vs handler host memory in DMA calls.
	MemSpace = core.MemSpace
	// GetRequest describes a handler-issued get.
	GetRequest = core.GetRequest
)

// Handler return codes and memory spaces (Appendix B.3–B.6).
const (
	Drop               = core.Drop
	DropPending        = core.DropPending
	ProcessData        = core.ProcessData
	ProcessDataPending = core.ProcessDataPending
	Proceed            = core.Proceed
	ProceedPending     = core.ProceedPending

	PayloadSuccess = core.PayloadSuccess
	PayloadDrop    = core.PayloadDrop
	PayloadFail    = core.PayloadFail

	CompletionSuccess        = core.CompletionSuccess
	CompletionSuccessPending = core.CompletionSuccessPending

	MEHostMem      = core.MEHostMem
	HandlerHostMem = core.HandlerHostMem
)

// Portals 4 surface (§3).
type (
	// NI is a logical network interface.
	NI = portals.NI
	// ME is a matching entry with optional sPIN handlers. Its host
	// region is Start's bytes, or else a timing-only region of Length
	// bytes: bounded and charged like Start memory, it holds no bytes, so
	// writes store nothing and reads yield zeros. Deposits and gets land
	// on their intersection with the region; handler DMA must lie inside.
	ME = portals.ME
	// MD is a memory descriptor.
	MD = portals.MD
	// EQ is an event queue. Without an OnEvent handler it stores every
	// event for Events and PollUpTo; with one, each event goes to the
	// handler and is not stored, so those see only the events appended
	// while no handler was set.
	EQ = portals.EQ
	// CT is a counting event (triggered-operation source).
	CT = portals.CT
	// Event is a full event.
	Event = portals.Event
	// PutArgs are the arguments of Put/ArmTriggeredPut.
	PutArgs = portals.PutArgs
	// GetArgs are the arguments of Get/ArmTriggeredGet.
	GetArgs = portals.GetArgs
	// ListKind selects the priority or overflow list.
	ListKind = portals.ListKind
)

// List kinds.
const (
	PriorityList = portals.PriorityList
	OverflowList = portals.OverflowList
)

// Cluster is a simulated system: n nodes on a fat tree, each with a host,
// a NIC, a DMA bus, and a sPIN runtime, plus one Portals NI per node.
type Cluster struct {
	*netsim.Cluster
	nis []*portals.NI
}

// NewCluster builds an n-node system with the given parameters.
func NewCluster(n int, p Params) (*Cluster, error) {
	c, err := netsim.NewCluster(n, p)
	if err != nil {
		return nil, err
	}
	return &Cluster{Cluster: c, nis: portals.Setup(c)}, nil
}

// NI returns rank's network interface.
func (c *Cluster) NI(rank int) *portals.NI { return c.nis[rank] }

// NewEQ allocates an event queue.
func (c *Cluster) NewEQ() *EQ { return portals.NewEQ(c.Eng) }

// NewCT allocates a counting event.
func (c *Cluster) NewCT() *CT { return portals.NewCT(c.Eng) }

// Now returns the current simulated time.
func (c *Cluster) Now() Time { return c.Eng.Now() }

// EnableTimeline attaches an activity recorder (see cmd/spintrace).
func (c *Cluster) EnableTimeline() *timeline.Recorder {
	rec := &timeline.Recorder{}
	c.Rec = rec
	return rec
}
