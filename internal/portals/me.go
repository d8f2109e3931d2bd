package portals

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// ME is a matching list entry (§3.1) with the sPIN extensions of Appendix
// B.1: three optional handlers, an HPU memory handle, initial HPU state,
// and an auxiliary host-memory region for handler output.
//
// Like a Portals 4 ME, an entry carries a start and a length: its host
// region (a core.Region) is Start's bytes, or else a timing-only region of
// Length bytes, which is bounded exactly like a Length-byte Start but holds
// no bytes. Writes into it store nothing, reads from it yield zeros, and a
// get or PutFromHost served from it sends a message without data. An entry
// with neither has a zero-length region. Deposits and gets land on their
// intersection with the region; handler DMA must lie wholly inside it.
type ME struct {
	// Start is the host-memory region the entry steers into.
	Start []byte
	// Length sizes a timing-only host region (see ME); 0 when Start does.
	Length int
	// MatchBits/IgnoreBits implement 64-bit masked matching.
	MatchBits  uint64
	IgnoreBits uint64
	// MatchSource restricts matching to one source rank when >= 0. Its
	// zero value matches any source; MatchExactSource(0) restricts the
	// entry to rank 0.
	MatchSource int
	// UseOnce unlinks the entry after its first match.
	UseOnce bool
	// ManageLocal enables locally-managed offsets: incoming messages are
	// packed back-to-back regardless of their requested offset.
	ManageLocal bool
	// CT/EQ receive completion notifications.
	CT *CT
	EQ *EQ

	// Handlers are the sPIN extensions; all-nil means plain Portals.
	Handlers core.HandlerSet
	// HPUMem is the handler shared-memory handle (PtlHPUAllocMem).
	HPUMem *core.HPUMem
	// InitialState, when non-nil, is copied into HPUMem at append time.
	InitialState []byte
	// HandlerHostMem is the optional second host region (Appendix B.2).
	HandlerHostMem []byte

	ni          *NI
	pte         *PTEntry
	list        ListKind
	unlinked    bool
	exactSource bool
	localOffset int64
	// mectx is embedded by value and me installs itself as its
	// core.MEOwner, so appending an entry allocates neither the context
	// nor per-callback closures.
	mectx core.MEContext
}

// Unlinked reports whether the entry has been consumed or removed.
func (me *ME) Unlinked() bool { return me.unlinked }

// LocalOffset returns the next locally-managed offset (test/diagnostics).
func (me *ME) LocalOffset() int64 { return me.localOffset }

// matches implements Portals 4 masked matching.
func (me *ME) matches(m *netsim.Message) bool {
	if me.unlinked {
		return false
	}
	if me.MatchSource >= 0 && me.MatchSource != m.Src {
		return false
	}
	return (m.MatchBits^me.MatchBits)&^me.IgnoreBits == 0
}

// MEAppend validates and installs an entry on a portal table list
// (PtlMEAppend with the sPIN extensions). It builds the core.MEContext that
// connects matched messages to the HPU runtime.
func (ni *NI) MEAppend(ptIndex int, me *ME, list ListKind) error {
	pte := ni.pt[ptIndex]
	if pte == nil {
		return fmt.Errorf("portals: PT index %d not allocated", ptIndex)
	}
	if me.ni != nil {
		return fmt.Errorf("portals: ME already appended")
	}
	if me.Length < 0 {
		return fmt.Errorf("portals: ME length %d is negative", me.Length)
	}
	if me.Start != nil && me.Length != 0 {
		return fmt.Errorf("portals: ME sets both Start (%d bytes) and Length %d", len(me.Start), me.Length)
	}
	if len(me.InitialState) > ni.Limits.MaxInitialState {
		return fmt.Errorf("portals: initial state of %d bytes exceeds max_initial_state %d",
			len(me.InitialState), ni.Limits.MaxInitialState)
	}
	if me.InitialState != nil && me.HPUMem == nil {
		return fmt.Errorf("portals: initial state requires HPU memory")
	}
	if me.InitialState != nil && len(me.InitialState) > len(me.HPUMem.Buf) {
		return fmt.Errorf("portals: initial state of %d bytes exceeds HPU memory of %d",
			len(me.InitialState), len(me.HPUMem.Buf))
	}
	if !me.Handlers.Empty() && me.HPUMem != nil && len(me.HPUMem.Buf) > ni.Limits.MaxHandlerMem {
		return fmt.Errorf("portals: HPU memory of %d bytes exceeds max_handler_mem %d",
			len(me.HPUMem.Buf), ni.Limits.MaxHandlerMem)
	}
	me.ni = ni
	me.pte = pte
	me.list = list
	if me.MatchSource == 0 && !me.exactSource {
		me.MatchSource = -1 // the zero value is the wildcard
	}
	if me.InitialState != nil {
		copy(me.HPUMem.Buf, me.InitialState)
	}
	// Handler completions, counter increments and gets dispatch through the
	// entry itself (core.MEOwner), closure-free.
	me.mectx = core.MEContext{
		Handlers:       me.Handlers,
		State:          me.HPUMem,
		HostMem:        core.TimingRegion(me.Length),
		HandlerHostMem: core.BytesRegion(me.HandlerHostMem),
		Owner:          me,
	}
	if me.Start != nil {
		me.mectx.HostMem = core.BytesRegion(me.Start)
	}
	if list == PriorityList {
		pte.priority = append(pte.priority, me)
	} else {
		pte.overflow = append(pte.overflow, me)
	}
	return nil
}

// resetState returns an appended entry to its just-appended state for NI
// reuse (NI.ResetInFlight): relinked, locally-managed offset rewound, HPU
// memory zeroed and re-seeded from InitialState, and any attached EQ/CT
// cleared. The host-memory region (Start) is deliberately left as-is:
// deposits overwrite it per message and no timing depends on its contents,
// so clearing it would only add wall-clock cost to every reset.
func (me *ME) resetState() {
	me.unlinked = false
	me.localOffset = 0
	if me.HPUMem != nil && me.HPUMem.Buf != nil {
		clear(me.HPUMem.Buf)
		if me.InitialState != nil {
			copy(me.HPUMem.Buf, me.InitialState)
		}
	}
	if me.EQ != nil {
		me.EQ.Reset()
	}
	if me.CT != nil {
		me.CT.Reset()
	}
}

// MatchExactSource restricts the entry to messages from rank src (call
// before MEAppend; needed for src == 0 because the zero value is wildcard).
func (me *ME) MatchExactSource(src int) *ME {
	me.MatchSource = src
	me.exactSource = true
	return me
}

// Unlink removes the entry from its list (PtlMEUnlink).
func (me *ME) Unlink() { me.unlinked = true }

// MEComplete implements core.MEOwner: the runtime's completion upcall.
func (me *ME) MEComplete(now sim.Time, r core.MessageResult) {
	me.ni.finishMessage(now, me, r)
}

// MECTInc implements core.MEOwner: PtlHandlerCTInc on the attached counter.
func (me *ME) MECTInc(now sim.Time, n uint64) {
	if me.CT != nil {
		me.CT.Inc(now, n)
	}
}

// MEIssueGet implements core.MEOwner: handler-issued gets.
func (me *ME) MEIssueGet(now sim.Time, req core.GetRequest) {
	me.ni.handlerGet(now, me, req)
}

// handlerGet implements the PtlHandlerGet plumbing: an OpGet is injected
// from the device and its reply is deposited into the issuing ME's host
// region at req.LocalOffset (Ctx.Get checked that it fits).
func (ni *NI) handlerGet(now sim.Time, me *ME, req core.GetRequest) {
	m := ni.C.AllocMessage()
	m.Type = netsim.OpGet
	m.Src = ni.Node.Rank
	m.Dst = req.Target
	m.PTIndex = req.PTIndex
	m.MatchBits = req.MatchBits
	m.Offset = req.RemoteOffset
	m.HdrData = req.HdrData
	m.GetLength = req.Length
	m.ID = ni.C.NextID()
	op := ni.opFree.Get()
	op.dest = me.mectx.HostMem
	op.destOff = req.LocalOffset
	op.total = ni.C.P.Packets(req.Length)
	ni.outstanding[m.ID] = op
	ni.C.Send(now, m)
}

// match searches the priority list and then the overflow list.
func (pte *PTEntry) match(m *netsim.Message) *ME {
	for _, e := range pte.priority {
		if e.matches(m) {
			return e
		}
	}
	for _, e := range pte.overflow {
		if e.matches(m) {
			return e
		}
	}
	return nil
}
