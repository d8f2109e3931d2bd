// Package raidsim builds the §5.3 distributed RAID-5 storage system as a
// persistent simulated service: one client, four data servers, one parity
// server. Two protocol implementations are provided over the same
// substrate:
//
//   - RDMA: the servers' CPUs run the replication protocol (poll, XOR
//     diff, forward to parity, relay acks) — Fig. 7b left;
//   - sPIN: the handler set of Appendix C.3.5 runs it entirely on the
//     NICs — Fig. 7b right.
//
// The system replays SPC block traces (internal/spctrace) and measures
// total processing time, reproducing the §5.3 trace study and Fig. 7c.
package raidsim

import (
	"fmt"

	"repro/internal/handlers"
	"repro/internal/hostsim"
	"repro/internal/netsim"
	"repro/internal/noise"
	"repro/internal/portals"
	"repro/internal/sim"
	"repro/internal/spctrace"
)

// Topology ranks and portal indices.
const (
	Client     = 0
	ParityNode = 1
	DataBase   = 2
	DataNodes  = 4

	writePT     = 0 // client block writes
	diffPT      = 1 // data server -> parity diffs
	parityAckPT = 2 // parity -> data server acks
	clientAckPT = 3 // data server -> client write acks
	readPT      = 4 // client read requests
	readReplyPT = 5 // data server -> client read replies
	ackBits     = 30
	readBits    = 77
)

// maxBlock is the largest single transfer the system accepts.
const maxBlock = 1 << 20

// System is a running RAID-5 service on a 6-node cluster. Its ME regions
// are timing-only (portals.ME.Length): no simulated time depends on the
// bytes a block holds, so the regions hold none.
type System struct {
	C    *netsim.Cluster
	nis  []*portals.NI
	spin bool

	ackCT     *portals.CT
	acksSoFar uint64
	readEQ    *portals.EQ
	opDone    sim.Time
	readOpen  bool
	partsBuf  [DataNodes]int

	// Stats
	Writes, Reads uint64
	BytesMoved    uint64
}

// New builds the service with the given NIC parameters and protocol.
func New(p netsim.Params, spin bool) (*System, error) {
	p.FlowDeadline = 100 * sim.Millisecond
	c, err := netsim.NewCluster(DataBase+DataNodes, p)
	if err != nil {
		return nil, err
	}
	s := &System{C: c, nis: portals.Setup(c), spin: spin}
	if err := s.setupClient(); err != nil {
		return nil, err
	}
	if err := s.setupParity(); err != nil {
		return nil, err
	}
	for i := 0; i < DataNodes; i++ {
		if err := s.setupDataServer(DataBase + i); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Reset returns the system to its post-construction state so one service
// instance can replay trace after trace instead of being rebuilt per
// replay: the cluster's transport resets (netsim.Cluster.Reset, which
// leaves the installed receivers alone), every NI returns to idle with its
// portal tables, MEs, and handler scratchpad intact (portals.NI.
// ResetInFlight — which also rewinds locally-managed offsets, re-zeroes
// handler state, and clears the per-ME event queues), the client's ack
// counter and read EQ restart, and the statistics zero.
//
// Determinism contract: a reset system replays a trace bit-identically to
// a freshly built one. Every input to the event order restarts exactly —
// the host-mode CPUs are stateless (core occupancy lives in the reset core
// pools), the sPIN-mode handler state re-initializes to its append-time
// contents, and the ME lists keep their construction order. Free lists and
// map buckets kept by the resets change allocation behaviour only.
func (s *System) Reset() {
	s.C.Reset()
	for _, ni := range s.nis {
		ni.ResetInFlight()
	}
	s.ackCT.Reset()
	s.readEQ.Reset()
	s.acksSoFar = 0
	s.opDone = 0
	s.readOpen = false
	s.Writes = 0
	s.Reads = 0
	s.BytesMoved = 0
}

func (s *System) setupClient() error {
	ni := s.nis[Client]
	if _, err := ni.PTAlloc(clientAckPT, nil); err != nil {
		return err
	}
	s.ackCT = portals.NewCT(s.C.Eng)
	if err := ni.MEAppend(clientAckPT, &portals.ME{
		Length: 4096, IgnoreBits: ^uint64(0), ManageLocal: true, CT: s.ackCT,
	}, portals.PriorityList); err != nil {
		return err
	}
	if _, err := ni.PTAlloc(readReplyPT, nil); err != nil {
		return err
	}
	s.readEQ = portals.NewEQ(s.C.Eng)
	s.readEQ.OnEvent(func(ev portals.Event) {
		if s.readOpen {
			s.readOpen = false
			s.opDone = ev.At
		}
	})
	return ni.MEAppend(readReplyPT, &portals.ME{
		Length: maxBlock, IgnoreBits: ^uint64(0), ManageLocal: true, EQ: s.readEQ,
	}, portals.PriorityList)
}

func (s *System) setupParity() error {
	ni := s.nis[ParityNode]
	if _, err := ni.PTAlloc(diffPT, nil); err != nil {
		return err
	}
	me := &portals.ME{Length: maxBlock, MatchBits: handlers.ParityTag}
	if s.spin {
		mem, err := ni.RT.AllocHPUMem(handlers.RaidStateBytes)
		if err != nil {
			return err
		}
		me.HPUMem = mem
		me.Handlers = handlers.RaidParityUpdate(handlers.RaidParityConfig{
			AckPT: parityAckPT, AckBits: ackBits,
		})
	} else {
		cpu := hostsim.New(s.C, ParityNode, noise.None())
		eq := portals.NewEQ(s.C.Eng)
		me.EQ = eq
		eq.OnEvent(func(ev portals.Event) {
			if ev.Type != portals.EventPut {
				return
			}
			t := cpu.PollMatch(ev.At)
			t = cpu.KernelPasses(t, ev.Length, 3)
			if _, err := s.nis[ParityNode].Put(t, portals.PutArgs{
				Length: 1, Target: ev.Source,
				PTIndex: parityAckPT, MatchBits: ackBits, HdrData: ev.HdrData,
			}); err != nil {
				panic(err)
			}
		})
	}
	return ni.MEAppend(diffPT, me, portals.PriorityList)
}

func (s *System) setupDataServer(server int) error {
	ni := s.nis[server]
	for _, pt := range []int{writePT, parityAckPT, readPT} {
		if _, err := ni.PTAlloc(pt, nil); err != nil {
			return err
		}
	}
	writeME := &portals.ME{Length: maxBlock, MatchBits: 1}
	ackME := &portals.ME{Length: 4096, IgnoreBits: ^uint64(0), ManageLocal: true}
	readME := &portals.ME{Length: maxBlock, MatchBits: readBits}
	if s.spin {
		wmem, err := ni.RT.AllocHPUMem(handlers.RaidStateBytes)
		if err != nil {
			return err
		}
		writeME.HPUMem = wmem
		writeME.Handlers = handlers.RaidPrimaryWrite(handlers.RaidPrimaryConfig{
			ParityRank: ParityNode, ParityPT: diffPT,
		})
		amem, err := ni.RT.AllocHPUMem(8)
		if err != nil {
			return err
		}
		ackME.HPUMem = amem
		ackME.Handlers = handlers.RaidAckForward(clientAckPT)
		rmem, err := ni.RT.AllocHPUMem(8)
		if err != nil {
			return err
		}
		readME.HPUMem = rmem
		readME.Handlers = handlers.RaidPrimaryRead(readReplyPT)
	} else {
		cpu := hostsim.New(s.C, server, noise.None())
		weq := portals.NewEQ(s.C.Eng)
		writeME.EQ = weq
		weq.OnEvent(func(ev portals.Event) {
			if ev.Type != portals.EventPut {
				return
			}
			t := cpu.PollMatch(ev.At)
			t = cpu.KernelPasses(t, ev.Length, 4)
			if _, err := ni.Put(t, portals.PutArgs{
				Length: ev.Length, Target: ParityNode,
				PTIndex: diffPT, MatchBits: handlers.ParityTag, HdrData: uint64(ev.Source),
			}); err != nil {
				panic(err)
			}
		})
		aeq := portals.NewEQ(s.C.Eng)
		ackME.EQ = aeq
		aeq.OnEvent(func(ev portals.Event) {
			t := cpu.PollMatch(ev.At)
			if _, err := ni.Put(t, portals.PutArgs{
				Length: 1, Target: Client,
				PTIndex: clientAckPT, MatchBits: ackBits,
			}); err != nil {
				panic(err)
			}
		})
		req := portals.NewEQ(s.C.Eng)
		readME.EQ = req
		req.OnEvent(func(ev portals.Event) {
			if ev.Type != portals.EventPut {
				return
			}
			t := cpu.PollMatch(ev.At)
			if _, err := ni.Put(t, portals.PutArgs{
				Length: int(ev.HdrData & 0xffffffff), Target: ev.Source,
				PTIndex: readReplyPT, MatchBits: readBits,
			}); err != nil {
				panic(err)
			}
		})
	}
	if err := ni.MEAppend(writePT, writeME, portals.PriorityList); err != nil {
		return err
	}
	if err := ni.MEAppend(parityAckPT, ackME, portals.PriorityList); err != nil {
		return err
	}
	return ni.MEAppend(readPT, readME, portals.PriorityList)
}

// chunks splits a transfer across the data nodes (one stripe). The result
// aliases a per-system buffer valid until the next call — Write consumes it
// before issuing the next operation.
func (s *System) chunks(size int) []int {
	out := s.partsBuf[:0]
	base := size / DataNodes
	rem := size % DataNodes
	for i := 0; i < DataNodes; i++ {
		n := base
		if i < rem {
			n++
		}
		if n > 0 {
			out = append(out, n)
		}
	}
	return out
}

// writeDone is the pre-bound OnReachCall target that stamps a write's
// completion time — the per-request replacement for the former per-write
// closure on the ack counter.
func writeDone(a any) {
	s := a.(*System)
	s.opDone = s.C.Eng.Now()
}

// Write performs one striped write of size bytes starting at time start
// and returns its completion time (all acks received, parity updated).
func (s *System) Write(start sim.Time, size int) (sim.Time, error) {
	if size > maxBlock*DataNodes {
		return 0, fmt.Errorf("raidsim: write of %d exceeds capacity", size)
	}
	s.Writes++
	s.BytesMoved += uint64(size)
	parts := s.chunks(size)
	expected := uint64(len(parts))
	if s.spin {
		expected = 0
		for _, n := range parts {
			expected += uint64(s.C.P.Packets(n))
		}
	}
	s.opDone = 0
	target := s.acksSoFar + expected
	s.ackCT.OnReachCall(target, writeDone, s)
	t := start
	for i, n := range parts {
		var err error
		t, err = s.nis[Client].Put(t, portals.PutArgs{
			Length: n, Target: DataBase + i,
			PTIndex: writePT, MatchBits: 1,
		})
		if err != nil {
			return 0, err
		}
	}
	s.C.Eng.Run()
	s.acksSoFar = target
	if s.opDone == 0 {
		return 0, fmt.Errorf("raidsim: write of %d B never completed (acks %d/%d)", size, s.ackCT.Get(), target)
	}
	return s.opDone, nil
}

// Read fetches size bytes from the data server owning lba and returns the
// completion time at the client.
func (s *System) Read(start sim.Time, lba int64, size int) (sim.Time, error) {
	if size > maxBlock {
		return 0, fmt.Errorf("raidsim: read of %d exceeds block capacity", size)
	}
	s.Reads++
	s.BytesMoved += uint64(size)
	server := DataBase + int(lba%DataNodes)
	s.opDone = 0
	s.readOpen = true
	if _, err := s.nis[Client].Put(start, portals.PutArgs{
		Length: 0, Target: server, PTIndex: readPT, MatchBits: readBits,
		HdrData: uint64(size),
	}); err != nil {
		return 0, err
	}
	s.C.Eng.Run()
	if s.opDone == 0 {
		return 0, fmt.Errorf("raidsim: read of %d B never completed", size)
	}
	return s.opDone, nil
}

// Replay runs an SPC trace request-by-request (closed loop) and returns
// the total processing time.
func (s *System) Replay(recs []spctrace.Record) (sim.Time, error) {
	var t sim.Time
	for _, r := range recs {
		var err error
		if r.Write {
			t, err = s.Write(t, r.Bytes)
		} else {
			t, err = s.Read(t, r.LBA, r.Bytes)
		}
		if err != nil {
			return 0, err
		}
	}
	return t, nil
}
