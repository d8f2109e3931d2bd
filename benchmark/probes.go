package main

import (
	"fmt"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/datatype"
	"repro/internal/mpisim"
	"repro/internal/netsim"
	"repro/internal/portals"
	"repro/internal/raidsim"
	"repro/internal/sim"
	"repro/internal/spctrace"
	"repro/spin"
)

// probes measures each layer on its own, through its public API, with a
// root span per probe. The probes are the same in every traced run, so
// their times compare across workloads as well as across commits.
func (r *runner) probes(m *metrics) error {
	div := 1 // smoke runs divide every probe's work by this
	if r.smoke {
		div = 16
	}
	for _, p := range []struct {
		name string
		run  func(m *metrics, div int) error
	}{
		{"sim.hold", r.probeHold},
		{"netsim.send", r.probeSend},
		{"netsim.new", r.probeNew},
		{"portals.put", r.probePut},
		{"datatype.scatter", r.probeScatter},
		{"raidsim.replay", r.probeRaid},
		{"mpisim.replay", r.probeReplay},
		{"mpisim.lp", r.probeLP},
		{"serve.requests", r.probeServe},
	} {
		root := r.root("probe", p.name, r.id())
		err := p.run(m, div)
		r.tr.end(root)
		r.done(err)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	return nil
}

// timeEach runs fn reps times and returns the median seconds per call.
func timeEach(reps int, fn func() error) (float64, error) {
	ts := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, since(t0))
	}
	return median(ts), nil
}

// probeHold is the classic hold model on the engine queue: every dispatch
// schedules one event at a random later time, so the pending depth stays
// constant while ScheduleCall+Step cycle through the heap.
func (r *runner) probeHold(m *metrics, div int) error {
	for _, depth := range []int{64, 4096} {
		steps := (1 << 20) / div
		eng := sim.NewEngine()
		rng := rand.New(rand.NewSource(r.seed))
		deltas := make([]sim.Time, 1024)
		for i := range deltas {
			deltas[i] = sim.Time(1+rng.Intn(1000)) * sim.Nanosecond
		}
		k := 0
		var hold func(any)
		hold = func(any) {
			k++
			eng.ScheduleCall(eng.Now()+deltas[k&1023], hold, nil)
		}
		for i := 0; i < depth; i++ {
			eng.ScheduleCall(deltas[i&1023], hold, nil)
		}
		for i := 0; i < steps/8; i++ {
			eng.Step()
		}
		t0 := now()
		for i := 0; i < steps; i++ {
			eng.Step()
		}
		d := since(t0)
		if eng.Pending() != depth {
			return fmt.Errorf("hold model drifted to depth %d, want %d", eng.Pending(), depth)
		}
		m.set(fmt.Sprintf("sim.hold_ns.q%d", depth), d/float64(steps)*1e9, steps)
	}
	return nil
}

// packetSink is a receiver that counts packets and does no work, so the
// send probe isolates the transport.
type packetSink struct{ pkts int }

func (s *packetSink) ReceivePacket(now sim.Time, pkt *netsim.Packet) { s.pkts++ }

// probeSend times Cluster.Send+Run of a 1 MiB put between two nodes.
func (r *runner) probeSend(m *metrics, div int) error {
	const bytes = 1 << 20
	c, err := netsim.NewCluster(2, netsim.Integrated())
	if err != nil {
		return err
	}
	sink := &packetSink{}
	c.Nodes[1].Recv = sink
	send := func() error {
		c.Send(c.Eng.Now(), &netsim.Message{Type: netsim.OpPut, Src: 0, Dst: 1, Length: bytes})
		c.Run()
		return nil
	}
	send()
	msgs := 128 / div
	d, err := timeEach(msgs, send)
	if err != nil {
		return err
	}
	per := c.P.Packets(bytes)
	if want := (msgs + 1) * per; sink.pkts != want {
		return fmt.Errorf("delivered %d packets, want %d", sink.pkts, want)
	}
	m.set("netsim.send_ns_per_pkt", d/float64(per)*1e9, msgs)
	return nil
}

// probeNew times construction of fig5a's largest cluster (1024 nodes,
// discrete NIC) and the Portals set-up on it.
func (r *runner) probeNew(m *metrics, div int) error {
	reps := 3
	var c *netsim.Cluster
	newS, err := timeEach(reps, func() error {
		var err error
		c, err = netsim.NewCluster(1024, netsim.Discrete())
		return err
	})
	if err != nil {
		return err
	}
	var nis []*portals.NI
	setupS, err := timeEach(reps, func() error {
		nis = portals.Setup(c)
		return nil
	})
	if err != nil {
		return err
	}
	if len(nis) != 1024 {
		return fmt.Errorf("portals.Setup returned %d NIs, want 1024", len(nis))
	}
	m.set("netsim.new_s.n1024", newS, reps)
	m.set("portals.setup_s.n1024", setupS, reps)
	return nil
}

// putRig is a two-node spin cluster whose rank 1 has a persistent
// matching entry for rank 0's puts of one size.
type putRig struct {
	cl       *spin.Cluster
	org      *spin.NI
	md       *spin.MD
	deposits *spin.CT
	bytes    int
	samples  []float64 // seconds per put
}

func newPutRig(bytes int, handler bool) (*putRig, error) {
	cl, err := spin.NewCluster(2, spin.IntegratedNIC())
	if err != nil {
		return nil, err
	}
	tgt := cl.NI(1)
	if _, err := tgt.PTAlloc(0, nil); err != nil {
		return nil, err
	}
	p := &putRig{cl: cl, org: cl.NI(0), deposits: cl.NewCT(), bytes: bytes}
	me := &spin.ME{Start: make([]byte, bytes), MatchBits: 1, CT: p.deposits}
	if handler {
		me.Handlers = spin.HandlerSet{Payload: func(*spin.Ctx, spin.Payload) spin.PayloadRC { return spin.PayloadSuccess }}
	}
	if err := tgt.MEAppend(0, me, spin.PriorityList); err != nil {
		return nil, err
	}
	p.md = p.org.MDBind(make([]byte, bytes), nil, nil)
	return p, nil
}

// put times one acknowledged put and runs the cluster until it is quiet.
func (p *putRig) put() error {
	t0 := now()
	if _, err := p.org.Put(p.cl.Now(), spin.PutArgs{MD: p.md, Length: p.bytes, Target: 1, MatchBits: 1, AckReq: true}); err != nil {
		return err
	}
	p.cl.Run()
	p.samples = append(p.samples, since(t0))
	return nil
}

// probePut times a put through the spin API — match, deposit and ack —
// of 8 B and 64 KiB, and the 64 KiB put again with an empty payload
// handler installed, whose extra cost per packet is the HPU dispatch. The
// three rigs take turns, so drifting machine load hits them alike.
func (r *runner) probePut(m *metrics, div int) error {
	puts := 4000 / div
	var rigs [3]*putRig
	for i, c := range []struct {
		bytes   int
		handler bool
	}{{8, false}, {64 << 10, false}, {64 << 10, true}} {
		var err error
		if rigs[i], err = newPutRig(c.bytes, c.handler); err != nil {
			return err
		}
	}
	for i := 0; i <= puts; i++ {
		for _, p := range rigs {
			if err := p.put(); err != nil {
				return err
			}
		}
	}
	for _, p := range rigs {
		if got := p.deposits.Get(); got != uint64(puts+1) {
			return fmt.Errorf("%d B put: %d deposits, want %d", p.bytes, got, puts+1)
		}
		p.samples = p.samples[1:] // the first put warms the pools
	}
	small, large, handled := median(rigs[0].samples), median(rigs[1].samples), median(rigs[2].samples)
	m.set("portals.put_us.8B", small*1e6, puts)
	m.set("portals.put_us.64KiB", large*1e6, puts)
	params := netsim.Integrated()
	m.set("core.handler_ns_per_pkt", (handled-large)/float64(params.Packets(64<<10))*1e9, puts)
	return nil
}

// scatterSink keeps the scatter walk's result live.
var scatterSink int64

// probeScatter times fig7a's per-packet datatype work: the segment walk
// over one MTU of a vector of 16 B blocks.
func (r *runner) probeScatter(m *metrics, div int) error {
	v := datatype.Vector{Blocksize: 16, Stride: 32, Count: 1 << 18}
	mtu := netsim.Integrated().MTU
	n := (1 << 16) / div
	t0 := now()
	for i := 0; i < n; i++ {
		off := (i % 1024) * mtu
		nsegs, bytes, _, _ := v.SegmentStats(off, mtu)
		var sum int64
		v.ForEachSegment(off, mtu, func(so int64, ln int) bool {
			sum += so + int64(ln)
			return true
		})
		scatterSink += sum + int64(nsegs+bytes)
	}
	m.set("datatype.scatter_ns_per_pkt", since(t0)/float64(n)*1e9, n)
	return nil
}

// probeRaid times raidsim.New and the replay of the SPC trace suite.
func (r *runner) probeRaid(m *metrics, div int) error {
	suite := spctrace.Suite(400 / div)
	var sys *raidsim.System
	newS, err := timeEach(3, func() error {
		var err error
		sys, err = raidsim.New(netsim.Integrated(), true)
		return err
	})
	if err != nil {
		return err
	}
	ops := 0
	t0 := now()
	for _, name := range spctrace.SuiteNames() {
		sys.Reset()
		if _, err := sys.Replay(suite[name]); err != nil {
			return fmt.Errorf("replaying %s: %w", name, err)
		}
		ops += len(suite[name])
	}
	d := since(t0)
	m.set("raidsim.new_s", newS, 3)
	m.set("raidsim.replay_us_per_op", d/float64(ops)*1e6, ops)
	m.set("raidsim.ops", float64(ops), 0)
	return nil
}

// probeReplay replays table5c's 64-rank applications at its widest
// subsample layer by layer, on a perfect network and under loss, and
// reports where the time went. Calibration replays each program set on
// the engine the first replay built, so the probe covers engine
// construction and reset. The unimpaired rows are checked against
// bench.RunApp. A smoke run replays the first application only.
func (r *runner) probeReplay(m *metrics, div int) error {
	var small []apps.App
	for _, a := range apps.Suite() {
		if a.Ranks == 64 {
			small = append(small, a)
		}
	}
	if div > 1 {
		small = small[:1]
	}
	for _, k := range []expRun{{"table5c", 64, ""}, {"table5c", 64, "loss=0.001,jitter=1us,seed=1"}} {
		id := r.id()
		x, err := newAppReplayer(r, k, id)
		if err != nil {
			return err
		}
		sp := r.tr.begin("bench.exp", k.String(), id, 0, -1)
		for _, a := range small {
			got, err := x.app(a, sp)
			if err == nil && k.impair == "" {
				var want bench.AppResult
				want, err = bench.RunApp(nil, a, x.iters)
				if err == nil && (got.Messages != want.Messages || got.Overhead != want.Overhead || got.Speedup != want.Speedup) {
					err = fmt.Errorf("%s-%d: layer-by-layer replay gave %+v, bench.RunApp %+v", a.Name, a.Ranks, got, want)
				}
			}
			if err != nil {
				return err
			}
		}
		r.tr.end(sp)
		rs := x.finish()
		byName, _ := r.tr.selfByName(id)
		run := byName.get("mpisim.run").Seconds()
		if k.impair != "" {
			m.set("mpisim.ns_per_event.impaired", run/float64(rs.events)*1e9, rs.replays)
			continue
		}
		m.set("apps.programs_s", byName.get("apps.programs").Seconds(), 0)
		m.set("apps.calibrate_self_s", byName.get("apps.calibrate").Seconds(), 0)
		m.set("mpisim.new_s", byName.get("mpisim.new").Seconds(), 0)
		m.set("mpisim.reset_s", byName.get("mpisim.reset").Seconds(), 0)
		m.set("mpisim.run_s", run, rs.replays)
		m.set("mpisim.replays", float64(rs.replays), 0)
		m.set("mpisim.events", float64(rs.events), 0)
		m.set("mpisim.messages", float64(rs.messages), 0)
		m.set("mpisim.ns_per_event", run/float64(rs.events)*1e9, rs.replays)
	}
	return nil
}

// probeLP times Engine.Run of Cloverleaf-360 split into two logical
// processes against the serial engine, and checks both give one answer.
func (r *runner) probeLP(m *metrics, div int) error {
	var clover apps.App
	for _, a := range apps.Suite() {
		if a.Name == "Cloverleaf" && a.Ranks == 360 {
			clover = a
		}
	}
	if clover.Ranks == 0 {
		return fmt.Errorf("no Cloverleaf-360 in apps.Suite")
	}
	progs := clover.Programs(max(10/div, 2), 20*sim.Microsecond)
	const reps = 3
	var runtimes [2]sim.Time
	var secs [2][]float64
	for i, lp := range []int{1, 2} {
		cfg := mpisim.DefaultConfig(mpisim.HostMatching)
		cfg.LP = lp
		eng, err := mpisim.New(cfg, progs)
		if err != nil {
			return err
		}
		for rep := 0; rep < reps; rep++ {
			if rep > 0 {
				if err := eng.Reset(progs); err != nil {
					return err
				}
			}
			t0 := now()
			res, err := eng.Run()
			secs[i] = append(secs[i], since(t0))
			if err != nil {
				return err
			}
			runtimes[i] = res.Runtime
		}
	}
	if runtimes[0] != runtimes[1] {
		return fmt.Errorf("LP 2 simulated %v, serial %v", runtimes[1], runtimes[0])
	}
	m.set("mpisim.lp2_over_serial", median(secs[1])/median(secs[0]), reps)
	return nil
}
