package bench

import (
	"encoding/binary"
	"fmt"

	"repro/internal/handlers"
	"repro/internal/netsim"
	"repro/internal/portals"
	"repro/internal/sim"
)

// Fault-tolerant broadcast experiment (§5.4 + the impairment layer): the
// root reliably puts each broadcast to its binomial-graph neighbors and
// every other rank runs the handlers/ftbcast dedup-and-forward ME, all on
// a network with log2(P) permanently failed links and random packet loss.
// The claim under test is the paper's "transparent reliable broadcast
// service offered by the network": despite dead links, lost packets, and
// redundant copies, every rank delivers every broadcast to host memory
// exactly once — duplicates die on the NIC, never in the application.
const (
	// ftbcastMsgs broadcasts per point; must stay <= 64 so the per-rank
	// delivery set fits one bitmask (and <= handlers.FTBcastWindow so
	// sequence numbers never contend for a dedup slot).
	ftbcastMsgs = 12
	// ftbcastLoss is the default random packet-loss probability.
	ftbcastLoss = 0.02
	// ftbcastJitter is the default per-packet delivery jitter bound.
	ftbcastJitter = 200 * sim.Nanosecond
	// ftbcastTimeout is the root's retransmit timeout; it clears the
	// round trip of a single-packet put with margin.
	ftbcastTimeout = 10 * sim.Microsecond
	// ftbcastMaxTries bounds the root's attempts per neighbor: the put
	// into a dead link must give up, not spin forever.
	ftbcastMaxTries = 6
)

// log2floor returns floor(log2(n)) for n >= 1.
func log2floor(n int) int {
	f := 0
	for 1<<(f+1) <= n {
		f++
	}
	return f
}

// ftbcastScenario is the default per-point fault schedule: a fixed seed
// (so every run of the same point replays the same faults), random loss,
// bounded jitter, and log2(P) permanently dead links (d-1) -> d. Each
// victim rank d keeps its other binomial-graph in-links, so the flood
// still reaches it; the dead 0 -> 1 link additionally forces the root's
// reliable puts to rank 1 through the full retry budget into a give-up.
func ftbcastScenario(nprocs int) *netsim.Impairment {
	im := &netsim.Impairment{
		Seed:   42 + uint64(nprocs),
		Loss:   ftbcastLoss,
		Jitter: ftbcastJitter,
	}
	for d := 1; d <= log2floor(nprocs); d++ {
		im.Blocks = append(im.Blocks, netsim.LinkBlock{Src: d - 1, Dst: d})
	}
	return im
}

// ftKids carves cfg's binomial-graph forwarding list from the Env's kids
// arena, the FT-bcast analogue of binomialKids.
func (e *Env) ftKids(cfg handlers.FTBcastConfig) []int {
	start := len(e.kids)
	e.kids = cfg.AppendNeighbors(e.kids)
	return e.kids[start:len(e.kids):len(e.kids)]
}

// ftbcastPoint floods msgs broadcasts through nprocs ranks under the fault
// model and verifies exactly-once delivery at every non-root rank. It
// returns the finished table row; a missing delivery or a duplicate that
// reached host memory is an error, because surviving the faults is the
// experiment's claim, not a lucky outcome.
func ftbcastPoint(e *Env, p netsim.Params, nprocs, msgs int) ([]string, error) {
	// Redundant flooding queues several copies per HPU; like the broadcast
	// sweeps, measure latency rather than flow-control drops.
	p.FlowDeadline = 10 * sim.Millisecond
	e.resetScratch()
	// The built-in fault schedule applies only when the run has no model:
	// an explicit -impair model wins. Either way the model is part of the
	// cluster request, so the Env never hands a cluster carrying the
	// built-in schedule to another experiment's point.
	im := e.impair
	if im == nil {
		im = ftbcastScenario(nprocs)
	}
	c, nis, err := e.cluster(nprocs, p, im)
	if err != nil {
		return nil, err
	}
	red := log2floor(nprocs)
	delivered := make([]uint64, nprocs)
	// The only real host bytes in the harness: the root's puts carry
	// 8-byte sequence numbers that the handlers deposit into each rank's
	// ME, so the MEs and the root's MD buffers get 8-byte windows of this
	// point's own slice, never timing-only regions. Window r is rank r's
	// ME region and window nprocs+s-1 sequence s's MD buffer.
	host := make([]byte, 8*(nprocs+msgs))
	window := func(i int) []byte { return host[8*i : 8*i+8 : 8*i+8] }
	var nicDups, hostDups int
	var last sim.Time
	for r := 0; r < nprocs; r++ {
		if _, err := nis[r].PTAlloc(0, nil); err != nil {
			return nil, err
		}
		if r == 0 {
			continue // the root only sends; copies flooded back to it just drop
		}
		cfg := handlers.FTBcastConfig{
			MyRank: r, NProcs: nprocs, PT: 0, Bits: 7, Redundancy: red,
		}
		cfg.Peers = e.ftKids(cfg)
		mem, err := nis[r].RT.AllocHPUMem(handlers.FTBcastStateBytes)
		if err != nil {
			return nil, err
		}
		handlers.InitFTBcastState(mem.Buf)
		eq := nis[r].NewEQ()
		me := e.allocME()
		me.MatchBits = 7
		me.EQ = eq
		me.HPUMem = mem
		me.Start = window(r)
		me.Handlers = handlers.FTBcast(cfg)
		eq.OnEvent(func(ev portals.Event) {
			if ev.DroppedBytes > 0 {
				nicDups++ // NIC-side dedup: the copy never touched host memory
				return
			}
			bit := uint64(1) << (ev.HdrData - 1)
			if delivered[r]&bit != 0 {
				hostDups++
			}
			delivered[r] |= bit
			if ev.At > last {
				last = ev.At
			}
		})
		if err := nis[r].MEAppend(0, me, portals.PriorityList); err != nil {
			return nil, err
		}
	}

	// Root: reliable single-packet puts to its binomial-graph neighbors.
	// Payloads are real (8 bytes carrying the sequence number) so the
	// flood forwards data, and each sequence keeps its own buffer — every
	// retransmission re-reads the MD.
	nis[0].ConfigureRetrans(portals.RetransConfig{Timeout: ftbcastTimeout, MaxTries: ftbcastMaxTries})
	rootPeers := e.ftKids(handlers.FTBcastConfig{MyRank: 0, NProcs: nprocs, Redundancy: red})
	var t sim.Time
	for s := 1; s <= msgs; s++ {
		buf := window(nprocs + s - 1)
		binary.LittleEndian.PutUint64(buf, uint64(s))
		md := nis[0].MDBind(buf, nil, nil)
		for _, nb := range rootPeers {
			var err error
			t, err = nis[0].ReliablePut(t, portals.PutArgs{
				MD: md, Length: 8, Target: nb, PTIndex: 0, MatchBits: 7, HdrData: uint64(s),
			})
			if err != nil {
				return nil, err
			}
		}
	}
	c.Eng.Run()

	missing := 0
	for r := 1; r < nprocs; r++ {
		for s := 0; s < msgs; s++ {
			if delivered[r]&(1<<s) == 0 {
				missing++
			}
		}
	}
	if missing > 0 || hostDups > 0 {
		return nil, fmt.Errorf("bench: ftbcast P=%d: %d deliveries missing, %d duplicates reached the host", nprocs, missing, hostDups)
	}
	fs := c.Faults
	linksDown := 0
	if im := c.Impairment(); im != nil {
		linksDown = len(im.Blocks)
	}
	return []string{
		fmt.Sprintf("%d", nprocs),
		fmt.Sprintf("%d", msgs),
		fmt.Sprintf("%d", linksDown),
		fmt.Sprintf("%d", fs.Lost),
		fmt.Sprintf("%d", fs.Blocked),
		fmt.Sprintf("%d", nicDups),
		fmt.Sprintf("%d", fs.Retransmits),
		fmt.Sprintf("%d", fs.RetransFails),
		us(int64(last)),
	}, nil
}

// ftbcastSweep lays out the fault-tolerance experiment: broadcast delivery
// under injected link failures and packet loss.
func ftbcastSweep(scale int) *Sweep {
	s := NewSweep(&Table{
		ID:    "ftbcast",
		Title: "Fault-tolerant broadcast under injected faults (discrete NIC)",
		Header: []string{"procs", "bcasts", "links_down", "lost", "blocked",
			"nic_dups", "retrans", "giveups", "last_us"},
		Notes: "every broadcast delivered exactly once per rank despite the injected faults (default scenario: log2(P) dead links + 2% loss; -impair overrides); dups die on the NIC",
	})
	procs := []int{8, 16, 32, 64}
	if scale > 1 {
		procs = []int{8, 32}
	}
	p := netsim.Discrete()
	for _, n := range procs {
		s.Row(fmt.Sprint(n), func(e *Env) ([]string, error) {
			return ftbcastPoint(e, p, n, ftbcastMsgs)
		})
	}
	return s
}
