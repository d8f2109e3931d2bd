package mpisim

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func impairedConfig(mode MatchMode, im *netsim.Impairment) Config {
	cfg := DefaultConfig(mode)
	cfg.Impair = im
	return cfg
}

// TestImpairedExchangeCompletes replays an exchange over a lossy network in
// both matching modes. Under impairment every send is forced through the
// rendezvous control loop — eager would be fire-and-forget — so completion
// itself is the evidence that RTS/pull retries recovered the lost packets.
func TestImpairedExchangeCompletes(t *testing.T) {
	im := &netsim.Impairment{Seed: 17, Loss: 0.1, Jitter: sim.Microsecond}
	for _, mode := range []MatchMode{HostMatching, SpinMatching} {
		for _, size := range []int{1024, 64 * 1024} { // eager-sized and rendezvous-sized
			cfg := impairedConfig(mode, im)
			// Retransmission is message-granularity: a retried 64 KiB pull
			// re-rolls all 16 packets of the data stream, so at loss=0.1 a
			// whole attempt survives only ~0.9^16 ≈ 19% of the time. Budget
			// the retries for the loss rate instead of the default 16.
			cfg.MaxRetries = 64
			e, err := New(cfg, exchange(size, 10*sim.Microsecond, 5))
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatalf("mode %v size %d: %v", mode, size, err)
			}
			if res.Messages != 10 {
				t.Fatalf("mode %v size %d: messages = %d", mode, size, res.Messages)
			}
			if !e.C.Faults.Any() {
				t.Fatalf("mode %v size %d: no faults injected at loss=0.1", mode, size)
			}
		}
	}
}

// TestImpairedResetBitIdentical extends the reset-equals-fresh contract to
// impaired replays: the fault schedule is keyed by per-link packet sequence
// numbers that Reset restarts, so a reset engine must replay the identical
// faults and land on the identical Result (retransmit counts included).
func TestImpairedResetBitIdentical(t *testing.T) {
	im := &netsim.Impairment{Seed: 23, Loss: 0.08, Jitter: 500 * sim.Nanosecond}
	progs := exchange(32*1024, 5*sim.Microsecond, 4)
	for _, mode := range []MatchMode{HostMatching, SpinMatching} {
		e, err := New(impairedConfig(mode, im), progs)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		freshFaults := e.C.Faults
		if err := e.Reset(progs); err != nil {
			t.Fatal(err)
		}
		reused, err := e.Run()
		if err != nil {
			t.Fatalf("%v: impaired reset replay: %v", mode, err)
		}
		if reused != fresh {
			t.Fatalf("%v: impaired reset diverged:\nfresh  %+v\nreused %+v", mode, fresh, reused)
		}
		if e.C.Faults != freshFaults {
			t.Fatalf("%v: fault schedule diverged: %+v vs %+v", mode, e.C.Faults, freshFaults)
		}
	}
}

// TestImpairedRetransmitsAreCounted pins the Result plumbing: a seed that
// loses control messages must surface nonzero Retransmits.
func TestImpairedRetransmitsAreCounted(t *testing.T) {
	im := &netsim.Impairment{Seed: 2, Loss: 0.25}
	e, err := New(impairedConfig(SpinMatching, im), exchange(16*1024, sim.Microsecond, 6))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Retransmits == 0 {
		t.Fatal("loss=0.25 replay completed without a single control retransmit")
	}
	if e.C.Faults.Retransmits != res.Retransmits {
		t.Fatalf("cluster counts %d retransmits, Result %d", e.C.Faults.Retransmits, res.Retransmits)
	}
}

// TestImpairedGiveUpSurfacesAsDeadlock takes a link permanently down: the
// pull for data behind it exhausts its retry budget, and the replay reports
// the stuck ranks rather than spinning forever.
func TestImpairedGiveUpSurfacesAsDeadlock(t *testing.T) {
	im := &netsim.Impairment{Blocks: []netsim.LinkBlock{{Src: 0, Dst: 1}}}
	cfg := impairedConfig(SpinMatching, im)
	cfg.RetryTimeout = 5 * sim.Microsecond
	cfg.MaxRetries = 3
	e, err := New(cfg, exchange(1024, sim.Microsecond, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("replay across a dead link should report a deadlock")
	}
	if e.C.Faults.RetransFails == 0 {
		t.Fatal("no retry budget exhaustion recorded")
	}
	if e.C.Faults.Blocked == 0 {
		t.Fatal("no packets blocked on the dead link")
	}
}

// ring builds an n-rank program where each rank exchanges with both ring
// neighbours every iteration — unlike exchange's two ranks, the traffic
// crosses every partition boundary an LP run can cut.
func ring(n, size int, compute sim.Time, iters int) [][]Op {
	progs := make([][]Op, n)
	for r := 0; r < n; r++ {
		next, prev := (r+1)%n, (r+n-1)%n
		var ops []Op
		for it := 0; it < iters; it++ {
			tag := uint64(it + 1)
			ops = append(ops,
				Op{Kind: OpIrecv, Peer: prev, Tag: tag, Size: size},
				Op{Kind: OpIsend, Peer: next, Tag: tag, Size: size},
				Op{Kind: OpCompute, Dur: compute},
				Op{Kind: OpWaitAll},
			)
		}
		progs[r] = ops
	}
	return progs
}

// TestLPReset pins the reset contract for partitioned engines: Reset on an
// LP engine must cascade through every shard engine and restart the
// per-link impairment sequence numbers, so an impaired LP replay after
// Reset is bit-identical to the fresh one (Result and fault counters), and
// both match the serial engine bit for bit.
func TestLPReset(t *testing.T) {
	im := &netsim.Impairment{Seed: 31, Loss: 0.05, Jitter: 400 * sim.Nanosecond}
	progs := ring(6, 24*1024, 3*sim.Microsecond, 3)
	cfg := impairedConfig(SpinMatching, im)
	cfg.MaxRetries = 64

	serial, err := New(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantFaults := serial.C.Faults
	if !wantFaults.Any() {
		t.Fatal("no faults injected at loss=0.05")
	}

	cfg.LP = 3
	e, err := New(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	if e.C.LPCount() != 3 {
		t.Fatalf("LPCount = %d, want 3", e.C.LPCount())
	}
	fresh, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fresh != want || e.C.Faults != wantFaults {
		t.Fatalf("LP replay diverged from serial:\nserial %+v faults %+v\nlp     %+v faults %+v",
			want, wantFaults, fresh, e.C.Faults)
	}
	if err := e.Reset(progs); err != nil {
		t.Fatal(err)
	}
	reused, err := e.Run()
	if err != nil {
		t.Fatalf("LP reset replay: %v", err)
	}
	if reused != fresh {
		t.Fatalf("LP reset diverged:\nfresh  %+v\nreused %+v", fresh, reused)
	}
	if e.C.Faults != wantFaults {
		t.Fatalf("LP reset fault schedule diverged: %+v vs %+v", e.C.Faults, wantFaults)
	}
}

// TestFinishedExchangesCancelTheirTimers replays a jittered rendezvous
// exchange whose retry timeout is a whole second, far beyond any exchange:
// every RTS and pull timer is cancelled when its exchange ends, so no
// timeout is left in the queue, and each engine's clock (each shard's under
// LP) stops at the last real event instead of running on to the last timer
// a second later. Nothing is retransmitted, and LP 2 replays exactly as
// serially, in either matching mode.
func TestFinishedExchangesCancelTheirTimers(t *testing.T) {
	progs := exchange(16*1024, sim.Microsecond, 3)
	var serial Result
	for _, c := range []struct {
		mode MatchMode
		lp   int
	}{{HostMatching, 1}, {HostMatching, 2}, {SpinMatching, 1}, {SpinMatching, 2}} {
		mode, lp := c.mode, c.lp
		cfg := impairedConfig(mode, &netsim.Impairment{Seed: 5, Jitter: sim.Microsecond})
		cfg.RetryTimeout = sim.Second
		cfg.LP = lp
		e, err := New(cfg, progs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if e.C.Faults.Delayed == 0 {
			t.Fatalf("%v LP %d: no packet delayed at jitter=1us", mode, lp)
		}
		if res.Retransmits != 0 {
			t.Fatalf("%v LP %d: %d retransmits with a 1 s timeout", mode, lp, res.Retransmits)
		}
		var last sim.Time
		for i := range progs {
			now := e.C.NodeCluster(i).Eng.Now()
			if now >= cfg.RetryTimeout {
				t.Fatalf("%v LP %d: rank %d's engine clock ends at %v, want below the %v timeout", mode, lp, i, now, cfg.RetryTimeout)
			}
			last = max(last, now)
		}
		if last < res.Runtime {
			t.Fatalf("%v LP %d: the engine clocks end at %v, before the runtime %v", mode, lp, last, res.Runtime)
		}
		if lp == 1 {
			serial = res
		} else if res != serial {
			t.Fatalf("%v: LP 2 replay diverged from serial:\nserial %+v\nlp     %+v", mode, serial, res)
		}
	}
}
