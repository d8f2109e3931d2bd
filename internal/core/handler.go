// Package core implements the sPIN runtime — the paper's primary
// contribution (§2, §3.2, Appendix B). It executes user-defined header,
// payload, and completion handlers on a pool of handler processing units
// (HPUs) attached to a simulated NIC.
//
// Handlers are ordinary Go functions that mirror the paper's C handlers.
// Execution is data-plane synchronous and time-plane accounted: when the
// runtime invokes a handler it runs immediately and mutates real simulated
// memory, while the HandlerCtx accumulates simulated time — explicit cycle
// charges (2.5 GHz, IPC = 1, single-cycle scratchpad) plus resource waits
// for DMA and device puts. The HPU is reserved for the resulting interval,
// so concurrent handlers contend for HPUs, the DMA bus, and NIC egress
// exactly as in the paper's gem5+LogGOPSim co-simulation.
package core

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// HeaderRC is a header handler's return code (Appendix B.3).
type HeaderRC int

const (
	// Drop discards the message; the NIC drops all following packets.
	Drop HeaderRC = iota
	// DropPending is Drop without completing the ME.
	DropPending
	// ProcessData asks the NIC to run the payload handler on every packet.
	ProcessData
	// ProcessDataPending is ProcessData without completing the ME.
	ProcessDataPending
	// Proceed executes the default action (deposit at the ME) with no
	// further handlers.
	Proceed
	// ProceedPending is Proceed without completing the ME.
	ProceedPending
	// HeaderSegv flags a segmentation violation (error event).
	HeaderSegv
	// HeaderFail flags a user handler error (error event).
	HeaderFail
)

// Pending reports whether the code suppresses ME completion.
func (rc HeaderRC) Pending() bool {
	return rc == DropPending || rc == ProcessDataPending || rc == ProceedPending
}

// IsError reports whether the code raises an error event.
func (rc HeaderRC) IsError() bool { return rc == HeaderSegv || rc == HeaderFail }

// PayloadRC is a payload handler's return code (Appendix B.4).
type PayloadRC int

const (
	// PayloadSuccess indicates normal completion.
	PayloadSuccess PayloadRC = iota
	// PayloadDrop drops this packet (counted in DroppedBytes).
	PayloadDrop
	// PayloadFail flags a user handler error.
	PayloadFail
	// PayloadSegv flags a segmentation violation.
	PayloadSegv
)

// CompletionRC is a completion handler's return code (Appendix B.5).
type CompletionRC int

const (
	// CompletionSuccess indicates normal completion.
	CompletionSuccess CompletionRC = iota
	// CompletionSuccessPending completes without completing the ME.
	CompletionSuccessPending
	// CompletionFail flags a user handler error.
	CompletionFail
	// CompletionSegv flags a segmentation violation.
	CompletionSegv
)

// Header mirrors ptl_header_t (Appendix B.3): the fields of a message's
// header packet available to the header handler.
type Header struct {
	Type      uint8 // request type (put/get/atomic), netsim.OpType values
	Length    int   // payload length
	Target    int
	Source    int
	MatchBits uint64
	Offset    int64 // offset in the ME
	HdrData   uint64
	UserHdr   []byte // user-defined header (first bytes of the payload)
}

// Payload mirrors ptl_payload_t (Appendix B.4): one packet's payload.
type Payload struct {
	// Offset is the payload's offset within the whole message.
	Offset int
	// Size is the number of payload bytes in this packet. It is always
	// set, even for timing-only messages that carry no Data.
	Size int
	// Data is the packet payload (excludes the user header). Data is nil
	// for a packet without data; handlers must consult Size for charging,
	// and pass Data and Size on together (Ctx.PutFromDevice, DMAToHostB).
	Data []byte
}

// HeaderHandler is invoked exactly once per message, before any other
// handler of that message.
type HeaderHandler func(c *Ctx, h Header) HeaderRC

// PayloadHandler is invoked for every packet carrying payload after the
// header handler completed. Instances may execute concurrently on different
// HPUs and share HPU memory coherently.
type PayloadHandler func(c *Ctx, p Payload) PayloadRC

// CompletionHandler is invoked once per message after all header and
// payload handlers completed, before the completion event is delivered to
// the host.
type CompletionHandler func(c *Ctx, droppedBytes int, flowControlTriggered bool) CompletionRC

// HandlerSet bundles the three handlers installed with an ME. Any of them
// may be nil: a nil header handler behaves as ProcessData when a payload
// handler is installed and Proceed otherwise.
type HandlerSet struct {
	Header     HeaderHandler
	Payload    PayloadHandler
	Completion CompletionHandler
}

// Empty reports whether no handler is installed (plain Portals 4 ME).
func (h HandlerSet) Empty() bool {
	return h.Header == nil && h.Payload == nil && h.Completion == nil
}

// HPUMem is a block of NIC-local scratchpad memory allocated with
// PtlHPUAllocMem (Appendix B.2). It is shared, coherent, and linearly
// addressed; handlers attached to MEs referencing the same HPUMem
// communicate through it.
type HPUMem struct {
	Buf []byte
}

// MessageResult summarizes one processed message for the layer above
// (Portals: event queues and counters). It carries copies of the message
// header fields rather than the *netsim.Message itself: results are
// delivered after the last packet has been dispatched, at which point the
// transport may already have recycled a pooled message.
type MessageResult struct {
	// MsgID is the processed message's wire ID (ack correlation).
	MsgID uint64
	// Type, Source, MatchBits, HdrData, Length, and Offset are the header
	// fields of the processed message, copied at completion time. Type is
	// OpPut or OpAtomic; it picks the completion event.
	Type      netsim.OpType
	Source    int
	MatchBits uint64
	HdrData   uint64
	Length    int
	Offset    int64
	// AckReq reports whether the initiator asked for an acknowledgment.
	AckReq bool
	// End is when processing finished: the last handler returned, the
	// last deposit became visible in host memory, or the last packet
	// arrived, whichever is latest. The result is delivered at End.
	End sim.Time
	// DroppedBytes counts payload dropped by handlers or flow control.
	DroppedBytes int
	// FlowControl reports whether packets were dropped for lack of HPUs.
	FlowControl bool
	// Pending reports that a handler requested the ME not be completed
	// (e.g. a rendezvous header handler that issued a get).
	Pending bool
	// Err is set when a handler returned FAIL or SEGV.
	Err error
}
