package bench

import (
	"fmt"

	"repro/internal/handlers"
	"repro/internal/hostsim"
	"repro/internal/netsim"
	"repro/internal/noise"
	"repro/internal/portals"
	"repro/internal/sim"
)

// RAID-5 experiment topology (§5.3, Fig. 7b/7c): rank 0 is the client,
// rank 1 the parity node, ranks 2..5 the four data servers.
const (
	raidClient     = 0
	raidParityNode = 1
	raidDataBase   = 2
	raidDataNodes  = 4

	raidWritePT = 0 // client writes to data servers
	raidDiffPT  = 1 // data server -> parity updates
	raidPAckPT  = 2 // parity -> data server acks
	raidCAckPT  = 3 // data server -> client acks
	raidAckBits = 30
)

// raidChunks splits an update of size bytes across the data nodes.
func raidChunks(size int) []int {
	chunks := make([]int, 0, raidDataNodes)
	base := size / raidDataNodes
	rem := size % raidDataNodes
	for i := 0; i < raidDataNodes; i++ {
		n := base
		if i < rem {
			n++
		}
		if n > 0 {
			chunks = append(chunks, n)
		}
	}
	return chunks
}

// RaidUpdateTime measures one client update of size bytes striped across
// the four data servers, until the client has collected every ack — after
// the parity node is updated (Fig. 7c).
func RaidUpdateTime(p netsim.Params, spin bool, size int) (sim.Time, error) {
	return raidUpdateTime(nil, p, spin, size)
}

// stampTime is an OnReachCall target that records the firing instant into
// the *sim.Time it is armed with.
func stampTime(a any, now sim.Time) { *a.(*sim.Time) = now }

func raidUpdateTime(e *Env, p netsim.Params, spin bool, size int) (sim.Time, error) {
	// Saturating sweeps would otherwise trip flow control; these
	// experiments measure completion time, not drop behaviour.
	p.FlowDeadline = 100 * sim.Millisecond
	c, nis, err := e.cluster(raidDataBase+raidDataNodes, p)
	if err != nil {
		return 0, err
	}
	chunks := raidChunks(size)
	chunkCap := chunks[0]

	// Client ack collection. The RDMA protocol acks once per stripe; the
	// sPIN protocol acks once per diff message (one per packet), since
	// every parity-update message completes independently on the NIC.
	expectedAcks := len(chunks)
	if spin {
		expectedAcks = 0
		for _, n := range chunks {
			expectedAcks += c.P.Packets(n)
		}
	}
	if _, err := nis[raidClient].PTAlloc(raidCAckPT, nil); err != nil {
		return 0, err
	}
	ackCT := portals.NewCT(c.Eng)
	var done sim.Time
	ackCT.OnReachCall(uint64(expectedAcks), stampTime, &done)
	if err := nis[raidClient].MEAppend(raidCAckPT, &portals.ME{
		Start: make([]byte, 4096), IgnoreBits: ^uint64(0), ManageLocal: true, CT: ackCT,
	}, portals.PriorityList); err != nil {
		return 0, err
	}

	// Parity node.
	if _, err := nis[raidParityNode].PTAlloc(raidDiffPT, nil); err != nil {
		return 0, err
	}
	parityME := &portals.ME{Start: make([]byte, chunkCap), MatchBits: handlers.ParityTag}
	if spin {
		mem, err := nis[raidParityNode].RT.AllocHPUMem(handlers.RaidStateBytes)
		if err != nil {
			return 0, err
		}
		parityME.HPUMem = mem
		parityME.Handlers = handlers.RaidParityUpdate(handlers.RaidParityConfig{
			AckPT: raidPAckPT, AckBits: raidAckBits,
		})
	} else {
		eq := portals.NewEQ(c.Eng)
		parityME.EQ = eq
		cpu := hostsim.New(c, raidParityNode, noise.None())
		eq.OnEvent(func(ev portals.Event) {
			if ev.Type != portals.EventPut {
				return
			}
			// Poll, read old parity + diff, write parity (3 passes),
			// then ack the data server from the host.
			t := cpu.PollMatch(ev.At)
			t = cpu.KernelPasses(t, ev.Length, 3)
			if _, err := nis[raidParityNode].Put(t, portals.PutArgs{
				Length: 1, NoData: true, Target: ev.Source,
				PTIndex: raidPAckPT, MatchBits: raidAckBits, HdrData: ev.HdrData,
			}); err != nil {
				panic(err)
			}
		})
	}
	if err := nis[raidParityNode].MEAppend(raidDiffPT, parityME, portals.PriorityList); err != nil {
		return 0, err
	}

	// Data servers.
	for i := 0; i < len(chunks); i++ {
		server := raidDataBase + i
		if _, err := nis[server].PTAlloc(raidWritePT, nil); err != nil {
			return 0, err
		}
		if _, err := nis[server].PTAlloc(raidPAckPT, nil); err != nil {
			return 0, err
		}
		writeME := &portals.ME{Start: make([]byte, chunkCap), MatchBits: 1}
		ackME := &portals.ME{Start: make([]byte, 64), IgnoreBits: ^uint64(0), ManageLocal: true}
		if spin {
			wmem, err := nis[server].RT.AllocHPUMem(handlers.RaidStateBytes)
			if err != nil {
				return 0, err
			}
			writeME.HPUMem = wmem
			writeME.Handlers = handlers.RaidPrimaryWrite(handlers.RaidPrimaryConfig{
				ParityRank: raidParityNode, ParityPT: raidDiffPT,
			})
			amem, err := nis[server].RT.AllocHPUMem(8)
			if err != nil {
				return 0, err
			}
			ackME.HPUMem = amem
			ackME.Handlers = handlers.RaidAckForward(raidCAckPT)
		} else {
			cpu := hostsim.New(c, server, noise.None())
			weq := portals.NewEQ(c.Eng)
			writeME.EQ = weq
			weq.OnEvent(func(ev portals.Event) {
				if ev.Type != portals.EventPut {
					return
				}
				// Poll, compute diff = old ^ new and store the new block
				// (read old, read new, write new, write diff: 4 passes),
				// then forward the diff to the parity node.
				t := cpu.PollMatch(ev.At)
				t = cpu.KernelPasses(t, ev.Length, 4)
				if _, err := nis[server].Put(t, portals.PutArgs{
					Length: ev.Length, NoData: true, Target: raidParityNode,
					PTIndex: raidDiffPT, MatchBits: handlers.ParityTag,
					HdrData: uint64(ev.Source),
				}); err != nil {
					panic(err)
				}
			})
			aeq := portals.NewEQ(c.Eng)
			ackME.EQ = aeq
			aeq.OnEvent(func(ev portals.Event) {
				// Relay the parity ack to the client from the host.
				t := cpu.PollMatch(ev.At)
				if _, err := nis[server].Put(t, portals.PutArgs{
					Length: 1, NoData: true, Target: raidClient,
					PTIndex: raidCAckPT, MatchBits: raidAckBits,
				}); err != nil {
					panic(err)
				}
			})
		}
		if err := nis[server].MEAppend(raidWritePT, writeME, portals.PriorityList); err != nil {
			return 0, err
		}
		if err := nis[server].MEAppend(raidPAckPT, ackME, portals.PriorityList); err != nil {
			return 0, err
		}
	}

	// Client: stripe the update across the data servers (sequential posts).
	var t sim.Time
	for i, n := range chunks {
		var err error
		t, err = nis[raidClient].Put(t, portals.PutArgs{
			Length: n, NoData: true, Target: raidDataBase + i,
			PTIndex: raidWritePT, MatchBits: 1,
		})
		if err != nil {
			return 0, err
		}
	}
	c.Eng.Run()
	if done == 0 {
		return 0, fmt.Errorf("bench: RAID update of %d B never completed (acks %d/%d)", size, ackCT.Get(), expectedAcks)
	}
	return done, nil
}

// fig7cSweep lays out Figure 7c: RAID-5 update time vs transfer size for
// both NIC types.
func fig7cSweep(scale int) *Sweep {
	s := NewSweep(&Table{
		ID:     "fig7c",
		Title:  "Distributed RAID-5 update time (us)",
		Header: []string{"bytes", "RDMA/P4(int)", "sPIN(int)", "RDMA/P4(dis)", "sPIN(dis)"},
		Notes:  "paper: comparable for small transfers, sPIN much faster for large blocks",
	})
	if scale < 1 {
		scale = 1
	}
	sizes := Fig3Sizes()
	for i, size := range sizes {
		if i%scale != 0 && size != sizes[len(sizes)-1] {
			continue
		}
		s.Row(func(e *Env) ([]string, error) {
			row := []string{fmt.Sprintf("%d", size)}
			for _, p := range []netsim.Params{netsim.Integrated(), netsim.Discrete()} {
				for _, spinMode := range []bool{false, true} {
					d, err := raidUpdateTime(e, p, spinMode, size)
					if err != nil {
						return nil, err
					}
					row = append(row, us(int64(d)))
				}
			}
			return row, nil
		})
	}
	return s
}
