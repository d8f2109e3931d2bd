package sim

import (
	"math/rand"
	"testing"
)

// windowHarness is a minimal partitioned model for exercising Windows: K
// engines whose events randomly cascade locally or emit cross-engine
// messages with propagation delay >= the configured lookahead. Cross
// messages park in per-source outboxes and are delivered by the Flush hook,
// mirroring the structure netsim's transport uses.
type windowHarness struct {
	engines   []*Engine
	lookahead Time
	rng       *rand.Rand // seeding only (single-threaded)
	// rngs[i] drives engine i's event cascades: events on different engines
	// execute concurrently, so each engine draws from its own stream.
	rngs []*rand.Rand
	// outbox[i] holds (dstEngine, at) pairs produced by engine i during the
	// current window.
	outbox [][]crossEv
	// trace[i] records the execution time of every event engine i ran, in
	// order; the flush hook audits each window's slice against the
	// committed horizon.
	trace   [][]Time
	audited []int // per-engine count of already audited trace entries
}

type crossEv struct {
	dst int
	at  Time
}

func newWindowHarness(k int, lookahead Time, seed int64) *windowHarness {
	h := &windowHarness{
		engines:   make([]*Engine, k),
		lookahead: lookahead,
		rng:       rand.New(rand.NewSource(seed)),
		rngs:      make([]*rand.Rand, k),
		outbox:    make([][]crossEv, k),
		trace:     make([][]Time, k),
		audited:   make([]int, k),
	}
	for i := range h.engines {
		h.engines[i] = NewEngine()
		h.rngs[i] = rand.New(rand.NewSource(seed + int64(i) + 1))
	}
	return h
}

// seedWork schedules n initial events spread across engines and time.
func (h *windowHarness) seedWork(n int, span Time) {
	for j := 0; j < n; j++ {
		i := h.rng.Intn(len(h.engines))
		at := Time(h.rng.Int63n(int64(span)))
		h.schedule(i, at, 3)
	}
}

// schedule puts one event on engine i at time at; when it fires it records
// its time and cascades depth further events — locally at any future time,
// or cross-engine no earlier than lookahead away.
func (h *windowHarness) schedule(i int, at Time, depth int) {
	e := h.engines[i]
	rng := h.rngs[i]
	e.ScheduleCall(at, runFunc, func() {
		now := e.Now()
		h.trace[i] = append(h.trace[i], now)
		if depth <= 0 {
			return
		}
		for c := 0; c < 2; c++ {
			if rng.Intn(3) == 0 {
				dst := rng.Intn(len(h.engines))
				if dst == i {
					h.schedule(i, now+Time(rng.Int63n(50)), depth-1)
				} else {
					// Cross-engine: visible no earlier than lookahead later.
					h.outbox[i] = append(h.outbox[i], crossEv{
						dst: dst,
						at:  now + h.lookahead + Time(rng.Int63n(100)),
					})
				}
			}
		}
	})
}

// flush is the Windows.Flush hook: it audits the window just executed and
// delivers parked cross-engine events.
func (h *windowHarness) flush(t *testing.T, depth int) func(Time) {
	return func(prevBound Time) {
		// Conservative-window audit: every event executed since the last
		// barrier must lie strictly below the bound just committed — an
		// engine that ran past it executed work that later cross-engine
		// traffic could still invalidate.
		for i := range h.trace {
			for _, at := range h.trace[i][h.audited[i]:] {
				if at >= prevBound && prevBound > 0 {
					t.Errorf("engine %d executed an event at %v, at or above the committed horizon %v", i, at, prevBound)
				}
			}
			h.audited[i] = len(h.trace[i])
		}
		for i := range h.outbox {
			for _, ce := range h.outbox[i] {
				if ce.at < prevBound && prevBound > 0 {
					t.Errorf("cross event for %v below committed horizon %v", ce.at, prevBound)
					continue
				}
				h.schedule(ce.dst, ce.at, depth)
			}
			h.outbox[i] = h.outbox[i][:0]
		}
	}
}

// TestWindowsConservativeInvariant drives randomized cascading workloads
// through Windows at several partition counts and lookaheads, auditing at
// every barrier that no engine executed at or above the committed horizon
// and that every cross-engine delivery lands at or above it. This is the
// engine-level half of the lookahead-safety contract; netsim's
// TestLPMatchesSerial* pins the transport-level half.
func TestWindowsConservativeInvariant(t *testing.T) {
	for _, k := range []int{2, 3, 7} {
		for _, la := range []Time{1, 17, 1000} {
			h := newWindowHarness(k, la, int64(k)*1000+int64(la))
			h.seedWork(40, 5000)
			g := &Windows{Engines: h.engines, Lookahead: la, Flush: h.flush(t, 2)}
			end := g.Run()
			var events int
			for i := range h.trace {
				events += len(h.trace[i])
			}
			if events == 0 {
				t.Fatalf("k=%d la=%v: no events executed", k, la)
			}
			for _, e := range h.engines {
				if e.Pending() != 0 {
					t.Fatalf("k=%d la=%v: engine still has pending events after Run", k, la)
				}
				if e.Now() > end {
					t.Fatalf("k=%d la=%v: Run returned %v, below an engine clock %v", k, la, end, e.Now())
				}
			}
		}
	}
}

// TestWindowsRequiresPositiveLookahead pins the constructor-time guard: a
// non-positive lookahead voids the conservative safety argument, so Run
// must refuse to start rather than desynchronize silently.
func TestWindowsRequiresPositiveLookahead(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Windows.Run with zero Lookahead did not panic")
		}
	}()
	g := &Windows{Engines: []*Engine{NewEngine()}, Lookahead: 0}
	g.Run()
}

// TestWindowsReRunAfterDrain pins that a Windows group is reusable: a
// second Run on refilled engines works (the coordinator re-spawns its
// workers per Run), which is what cluster Reset-reuse relies on.
func TestWindowsReRunAfterDrain(t *testing.T) {
	h := newWindowHarness(3, 10, 42)
	g := &Windows{Engines: h.engines, Lookahead: 10, Flush: h.flush(t, 1)}
	h.seedWork(10, 200)
	g.Run()
	first := len(h.trace[0]) + len(h.trace[1]) + len(h.trace[2])
	if first == 0 {
		t.Fatal("first run executed nothing")
	}
	for _, e := range h.engines {
		e.Reset()
	}
	h.audited = make([]int, 3)
	h.trace = make([][]Time, 3)
	h.seedWork(10, 200)
	g.Run()
	if len(h.trace[0])+len(h.trace[1])+len(h.trace[2]) == 0 {
		t.Fatal("second run executed nothing")
	}
}
