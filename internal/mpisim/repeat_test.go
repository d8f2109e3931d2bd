package mpisim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// unroll expands every program's trailing OpRepeat into the passes it
// stands for, adding pass×stride to each send and receive tag: the form an
// engine without OpRepeat would replay.
func unroll(programs [][]Op) [][]Op {
	out := make([][]Op, len(programs))
	for r, prog := range programs {
		n := len(prog)
		if n == 0 || prog[n-1].Kind != OpRepeat {
			out[r] = prog
			continue
		}
		rep, body := prog[n-1], prog[:n-1]
		for pass := 0; pass < rep.Size; pass++ {
			for _, op := range body {
				if op.Kind == OpIsend || op.Kind == OpIrecv {
					op.Tag += uint64(pass) * rep.Tag
				}
				out[r] = append(out[r], op)
			}
		}
	}
	return out
}

// fuzzBytes hands out a fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

// repeatCase decodes a fuzz input into a replay configuration and a set of
// periodic rank programs.
//
// Layout: ranks (2-4), flags (bit 0 sPIN matching, bit 1 LP 2, bits 2-3
// none/loss/jitter/both, bit 4 an unmatched receive), impairment seed,
// passes (1-8), stride selector, then per exchange four bytes (source,
// destination offset, size selector, tag; the low bits of the tag byte
// also place a compute phase or a WaitAll after the send) until the input
// ends or 12 exchanges are drawn.
func repeatCase(data []byte) (Config, [][]Op) {
	in := fuzzBytes(data)
	ranks := 2 + in.next()%3
	flags := in.next()
	cfg := DefaultConfig(HostMatching)
	if flags&1 != 0 {
		cfg.Mode = SpinMatching
	}
	if flags&2 != 0 {
		cfg.LP = 2
	}
	seed := uint64(in.next())
	switch (flags >> 2) & 3 {
	case 1:
		cfg.Impair = &netsim.Impairment{Seed: seed, Loss: 0.05}
	case 2:
		cfg.Impair = &netsim.Impairment{Seed: seed, Jitter: sim.Time(1+seed%8) * 250 * sim.Nanosecond}
	case 3:
		cfg.Impair = &netsim.Impairment{Seed: seed, Loss: 0.02, Jitter: 500 * sim.Nanosecond}
	}
	passes := 1 + in.next()%8
	stride := []uint64{1 << 16, 1, 0, 3}[in.next()%4]

	// Eager and rendezvous sizes around the 8 KiB threshold, one and
	// several packets.
	sizes := []int{8, 1024, 8192, 8193, 16384, 40000}
	bodies := make([][]Op, ranks)
	for n := 0; n < 12 && len(in) > 0; n++ {
		src := in.next() % ranks
		dst := (src + 1 + in.next()%(ranks-1)) % ranks
		size := sizes[in.next()%len(sizes)]
		t := in.next()
		tag := uint64(t >> 3)
		bodies[dst] = append(bodies[dst], Op{Kind: OpIrecv, Peer: src, Tag: tag, Size: size})
		bodies[src] = append(bodies[src], Op{Kind: OpIsend, Peer: dst, Tag: tag, Size: size})
		switch t & 7 {
		case 1, 2:
			bodies[src] = append(bodies[src], Op{Kind: OpCompute, Dur: sim.Time(t) * 40 * sim.Nanosecond})
		case 3:
			bodies[src] = append(bodies[src], Op{Kind: OpWaitAll})
		}
	}
	if flags&16 != 0 {
		// A receive no rank sends: both forms must deadlock alike.
		bodies[ranks-1] = append(bodies[ranks-1], Op{Kind: OpIrecv, Peer: 0, Tag: 1 << 40, Size: 64})
	}
	progs := make([][]Op, ranks)
	for r, body := range bodies {
		progs[r] = append(body,
			Op{Kind: OpCompute, Dur: sim.Time(r+1) * 300 * sim.Nanosecond},
			Op{Kind: OpWaitAll},
			Op{Kind: OpRepeat, Size: passes, Tag: stride},
		)
	}
	return cfg, progs
}

// replayOnce runs programs on a fresh engine and returns the result, the
// error text, the fault counters and the engine.
func replayOnce(t *testing.T, cfg Config, progs [][]Op) (Result, string, netsim.FaultStats, *Engine) {
	t.Helper()
	e, err := New(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	return res, fmt.Sprint(err), e.C.Faults, e
}

// FuzzRepeatMatchesUnrolled is the differential oracle for OpRepeat: a
// program set whose ranks each store one pass and a trailing OpRepeat must
// replay exactly as its unrolled twin, in host or sPIN matching, lossy or
// jittered, serially or on two logical processes: the same Result in every
// field, the same error text (deadlocks included) and the same fault
// counters. A Reset replay of the looped set must match too, which pins
// that Reset rewinds each rank's pass and tag offset.
func FuzzRepeatMatchesUnrolled(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, looped := repeatCase(data)
		res, errText, faults, e := replayOnce(t, cfg, looped)
		wantRes, wantErr, wantFaults, _ := replayOnce(t, cfg, unroll(looped))
		if res != wantRes || errText != wantErr || faults != wantFaults {
			t.Fatalf("looped and unrolled replays differ:\nlooped   %+v %q %+v\nunrolled %+v %q %+v",
				res, errText, faults, wantRes, wantErr, wantFaults)
		}
		if err := e.Reset(looped); err != nil {
			t.Fatal(err)
		}
		again, err := e.Run()
		if again != res || fmt.Sprint(err) != errText || e.C.Faults != faults {
			t.Fatalf("reset looped replay differs:\nfresh %+v %q %+v\nreset %+v %q %+v",
				res, errText, faults, again, err, e.C.Faults)
		}
	})
}

// TestRepeatDeadlockReportsUnrolledPosition pins Run's deadlock text for a
// looped program: the position is counted in the unrolled program (pass ×
// body length + op), out of passes × body length, so it reads exactly as
// the unrolled twin's.
func TestRepeatDeadlockReportsUnrolledPosition(t *testing.T) {
	body := func(peer int) []Op {
		return []Op{
			{Kind: OpIrecv, Peer: peer, Tag: 1, Size: 64},
			{Kind: OpIsend, Peer: peer, Tag: 1, Size: 64},
			{Kind: OpWaitAll},
		}
	}
	// Rank 0 runs three passes and rank 1 two, so rank 0 waits forever in
	// its third pass for a receive nobody sends.
	looped := [][]Op{
		append(body(1), Op{Kind: OpRepeat, Size: 3, Tag: 1}),
		append(body(0), Op{Kind: OpRepeat, Size: 2, Tag: 1}),
	}
	const want = "mpisim: rank 0 deadlocked at op 8/9"
	for name, progs := range map[string][][]Op{"looped": looped, "unrolled": unroll(looped)} {
		_, got, _, _ := replayOnce(t, DefaultConfig(HostMatching), progs)
		if got != want {
			t.Errorf("%s: error %q, want %q", name, got, want)
		}
	}
}

// TestMalformedRepeatRejected pins the repeat rule: New and Reset reject
// an OpRepeat that is not its program's last op or has fewer than one
// pass, naming the rank.
func TestMalformedRepeatRejected(t *testing.T) {
	good := exchange(64, sim.Microsecond, 1)
	for name, bad := range map[string][]Op{
		"not last":  {{Kind: OpRepeat, Size: 2}, {Kind: OpWaitAll}},
		"no passes": {{Kind: OpWaitAll}, {Kind: OpRepeat, Size: 0}},
		"negative":  {{Kind: OpRepeat, Size: -1}},
	} {
		progs := [][]Op{good[0], bad}
		if _, err := New(DefaultConfig(HostMatching), progs); err == nil || !strings.Contains(err.Error(), "rank 1") {
			t.Errorf("%s: New returned %v, want an error naming rank 1", name, err)
		}
		e, err := New(DefaultConfig(HostMatching), good)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Reset(progs); err == nil || !strings.Contains(err.Error(), "rank 1") {
			t.Errorf("%s: Reset returned %v, want an error naming rank 1", name, err)
		}
	}
}
