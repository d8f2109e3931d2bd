package handlers

import (
	"testing"

	"repro/internal/core"
	"repro/internal/portals"
	"repro/internal/sim"
)

// dataRig is one row of TestPayloadBytesNeverMoveTime: setup installs a
// protocol's entries on a fresh world of ranks nodes, each entry posting to
// the EQ of its rank, and returns the puts from rank 0 that start it,
// without MDs.
type dataRig struct {
	name  string
	ranks int
	setup func(t *testing.T, nis []*portals.NI, eqs []*portals.EQ) []portals.PutArgs
}

// rankEvent is what the test compares of each event: where and when it
// was posted, its type and its length.
type rankEvent struct {
	rank   int
	typ    portals.EventType
	at     sim.Time
	length int
}

// runDataRig runs rig once, its puts from an MD of non-zero bytes when
// data is set and without an MD otherwise, and returns every event posted
// at every rank.
func runDataRig(t *testing.T, rig dataRig, data bool) []rankEvent {
	t.Helper()
	c, nis := world(t, rig.ranks)
	eqs := make([]*portals.EQ, rig.ranks)
	for r := range eqs {
		eqs[r] = portals.NewEQ(c.Eng)
	}
	var now sim.Time
	for _, a := range rig.setup(t, nis, eqs) {
		if data {
			buf := make([]byte, a.Length)
			for i := range buf {
				buf[i] = byte(i*7 + 1)
			}
			a.MD = nis[0].MDBind(buf, nil, nil)
		}
		var err error
		if now, err = nis[0].Put(now, a); err != nil {
			t.Fatal(err)
		}
	}
	c.Eng.Run()
	var evs []rankEvent
	for r, eq := range eqs {
		for _, ev := range eq.Events() {
			evs = append(evs, rankEvent{r, ev.Type, ev.At, ev.Length})
		}
	}
	return evs
}

// bcastRig returns a broadcast row over ranks nodes: every rank but the
// root appends an entry of size bytes running build(rank, state) on
// stateBytes of HPU memory, and the root sends size bytes, sequence
// number 1, to each of its children.
func bcastRig(name string, ranks, size int, children []int, stateBytes int, build func(rank int, state []byte) core.HandlerSet) dataRig {
	return dataRig{name: name, ranks: ranks, setup: func(t *testing.T, nis []*portals.NI, eqs []*portals.EQ) []portals.PutArgs {
		for r, ni := range nis {
			mustPT(t, ni, 0)
			if r == 0 {
				continue
			}
			hm := hpuMem(t, ni, stateBytes)
			mustAppend(t, ni, 0, &portals.ME{
				Start: make([]byte, size), IgnoreBits: ^uint64(0), EQ: eqs[r],
				HPUMem: hm, Handlers: build(r, hm.Buf),
			})
		}
		var puts []portals.PutArgs
		for _, child := range children {
			puts = append(puts, portals.PutArgs{Length: size, Target: child, PTIndex: 0, HdrData: 1})
		}
		return puts
	}}
}

// TestPayloadBytesNeverMoveTime runs each forwarding and data-rewriting
// handler protocol twice, once with puts that carry data and once with
// puts of the same lengths without data, and requires the same events
// (type, time, length) at every rank: a packet's bytes never move
// simulated time, so a handler must forward and write a packet without
// data exactly as it would the same number of bytes.
func TestPayloadBytesNeverMoveTime(t *testing.T) {
	const stream = 3*4096 + 1000 // a multi-packet message with a short tail
	rigs := []dataRig{
		{name: "PingPong/stream", ranks: 2, setup: func(t *testing.T, nis []*portals.NI, eqs []*portals.EQ) []portals.PutArgs {
			mustPT(t, nis[1], 0)
			mustAppend(t, nis[1], 0, &portals.ME{
				Start: make([]byte, stream), MatchBits: 10, EQ: eqs[1],
				HPUMem:   hpuMem(t, nis[1], PingPongStateBytes),
				Handlers: PingPong(PingPongConfig{ReplyPT: 0, ReplyBits: 10, Streaming: true, MaxSize: 1 << 30}),
			})
			mustPT(t, nis[0], 0)
			mustAppend(t, nis[0], 0, &portals.ME{Start: make([]byte, stream), MatchBits: 10, EQ: eqs[0]})
			return []portals.PutArgs{{Length: stream, Target: 1, PTIndex: 0, MatchBits: 10}}
		}},
		{name: "Accumulate/pong", ranks: 2, setup: func(t *testing.T, nis []*portals.NI, eqs []*portals.EQ) []portals.PutArgs {
			const size = 2*4096 + 512 // whole complex values
			mustPT(t, nis[1], 0)
			mustAppend(t, nis[1], 0, &portals.ME{
				Start: make([]byte, size), MatchBits: 2, EQ: eqs[1],
				HPUMem:   hpuMem(t, nis[1], AccumulateStateBytes),
				Handlers: Accumulate(AccumulateConfig{Pong: true, ReplyPT: 1, ReplyBits: 20}),
			})
			mustPT(t, nis[0], 1)
			mustAppend(t, nis[0], 1, &portals.ME{Start: make([]byte, size), MatchBits: 20, EQ: eqs[0]})
			return []portals.PutArgs{{Length: size, Target: 1, PTIndex: 0, MatchBits: 2}}
		}},
		bcastRig("Bcast", 8, stream, BinomialTree(0, 8), BcastStateBytes, func(r int, _ []byte) core.HandlerSet {
			return Bcast(BcastConfig{MyRank: r, NProcs: 8, PT: 0, Streaming: true, MaxSize: 1 << 30})
		}),
		bcastRig("BcastTree/pipeline", 4, stream, PipelineTree(0, 4), BcastStateBytes, func(r int, _ []byte) core.HandlerSet {
			return BcastTree(BcastConfig{MyRank: r, NProcs: 4, PT: 0, Streaming: true, MaxSize: 1 << 30}, PipelineTree)
		}),
		// Redundancy 2 on 3 ranks: each rank gets a second copy, which its
		// header handler drops.
		bcastRig("FTBcast", 3, 256, FTBcastConfig{NProcs: 3, Redundancy: 2}.Neighbors(), FTBcastStateBytes, func(r int, state []byte) core.HandlerSet {
			InitFTBcastState(state)
			return FTBcast(FTBcastConfig{MyRank: r, NProcs: 3, PT: 0, Redundancy: 2})
		}),
		{name: "RaidPrimaryWrite/RaidParityUpdate", ranks: 3, setup: func(t *testing.T, nis []*portals.NI, eqs []*portals.EQ) []portals.PutArgs {
			// Ranks: 0 = client, 1 = parity, 2 = data server.
			const block = 2*4096 + 100
			mustPT(t, nis[2], 0)
			mustPT(t, nis[2], 2)
			mustAppend(t, nis[2], 0, &portals.ME{
				Start: make([]byte, block), MatchBits: 1, EQ: eqs[2],
				HPUMem:   hpuMem(t, nis[2], RaidStateBytes),
				Handlers: RaidPrimaryWrite(RaidPrimaryConfig{ParityRank: 1, ParityPT: 1, AckPT: 3}),
			})
			mustAppend(t, nis[2], 2, &portals.ME{
				Start: make([]byte, 8), IgnoreBits: ^uint64(0), EQ: eqs[2],
				HPUMem:   hpuMem(t, nis[2], 8),
				Handlers: RaidAckForward(3),
			})
			mustPT(t, nis[1], 1)
			mustAppend(t, nis[1], 1, &portals.ME{
				Start: make([]byte, block), MatchBits: ParityTag, EQ: eqs[1],
				HPUMem:   hpuMem(t, nis[1], RaidStateBytes),
				Handlers: RaidParityUpdate(RaidParityConfig{AckPT: 2, AckBits: 30}),
			})
			mustPT(t, nis[0], 3)
			mustAppend(t, nis[0], 3, &portals.ME{Start: make([]byte, 64), IgnoreBits: ^uint64(0), EQ: eqs[0], ManageLocal: true})
			return []portals.PutArgs{{Length: block, Target: 2, PTIndex: 0, MatchBits: 1}}
		}},
	}
	for _, rig := range rigs {
		t.Run(rig.name, func(t *testing.T) {
			with, without := runDataRig(t, rig, true), runDataRig(t, rig, false)
			if len(with) == 0 {
				t.Fatal("the rig posted no events")
			}
			for i := range min(len(with), len(without)) {
				if with[i] != without[i] {
					t.Fatalf("event %d: %+v with data, %+v without", i, with[i], without[i])
				}
			}
			if len(with) != len(without) {
				t.Fatalf("%d events with data, %d without", len(with), len(without))
			}
		})
	}
}
