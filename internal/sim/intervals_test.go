package sim

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestIntervalsInOrder(t *testing.T) {
	iv := NewIntervals("bus", NewEngine())
	if s := iv.Acquire(0, 100); s != 0 {
		t.Fatalf("first = %v", s)
	}
	if s := iv.Acquire(0, 100); s != 100 {
		t.Fatalf("second = %v", s)
	}
	if s := iv.Acquire(500, 100); s != 500 {
		t.Fatalf("third = %v", s)
	}
	if iv.FreeAt() != 600 {
		t.Fatalf("FreeAt = %v", iv.FreeAt())
	}
}

func TestIntervalsBackfillGap(t *testing.T) {
	iv := NewIntervals("bus", NewEngine())
	iv.Acquire(0, 100)    // [0,100)
	iv.Acquire(1000, 100) // [1000,1100)
	// A later request for an earlier time slots into the gap — the fix
	// for the head-of-line artifact.
	if s := iv.Acquire(200, 100); s != 200 {
		t.Fatalf("backfill = %v, want 200", s)
	}
	// A too-wide request skips the remaining gap.
	if s := iv.Acquire(150, 900); s != 1100 {
		t.Fatalf("wide = %v, want 1100", s)
	}
}

func TestIntervalsExactGapFit(t *testing.T) {
	iv := NewIntervals("bus", NewEngine())
	iv.Acquire(0, 100)
	iv.Acquire(200, 100)
	if s := iv.Acquire(0, 100); s != 100 {
		t.Fatalf("exact fit = %v, want 100", s)
	}
	// Everything merged into [0,300).
	if len(iv.busy) != 1 {
		t.Fatalf("spans = %d, want 1 after merge", len(iv.busy))
	}
}

func TestIntervalsZeroOccupancy(t *testing.T) {
	iv := NewIntervals("bus", NewEngine())
	iv.Acquire(0, 100)
	if s := iv.Acquire(50, 0); s != 100 {
		t.Fatalf("zero-occ inside busy = %v, want 100", s)
	}
	if len(iv.busy) != 1 {
		t.Fatal("zero-width reservation should not be stored")
	}
}

func TestIntervalsPruneBoundsMemory(t *testing.T) {
	iv := NewIntervals("bus", NewEngine())
	// Disjoint reservations (gap 1 between them) never merge.
	for i := 0; i < 3*maxSpans; i++ {
		iv.Acquire(Time(i*3), 2)
	}
	if len(iv.busy) > maxSpans+1 {
		t.Fatalf("interval list grew to %d", len(iv.busy))
	}
	if iv.floor == 0 {
		t.Fatal("floor never advanced")
	}
}

// TestIntervalsForgetBehindClock pins that a timeline holds what is in
// flight, not what it has served: with the clock one span behind a stream
// of disjoint reservations, the list never holds more than forgetAt spans,
// while the naive reference holds the whole history.
func TestIntervalsForgetBehindClock(t *testing.T) {
	eng := NewEngine()
	iv := NewIntervals("bus", eng)
	ref := &naiveIntervals{}
	for i := 0; i < 2*maxSpans; i++ {
		at := Time(3 * i)
		eng.RunUntil(max(at-3, 0)) // the previous span is still in flight
		if got, want := iv.Acquire(at, 2), ref.acquire(at, 2); got != want {
			t.Fatalf("request %d: Acquire = %d, reference = %d", i, got, want)
		}
		if iv.Held() > forgetAt {
			t.Fatalf("request %d: %d spans held, more than %d", i, iv.Held(), forgetAt)
		}
	}
	if len(ref.busy) <= forgetAt {
		t.Fatalf("the reference holds only %d spans", len(ref.busy))
	}
}

// TestRequestBeforeClockPanics pins the contract forgetting rests on: a
// request before the engine's Now is a model bug, and Acquire and
// AcquireAny panic naming the resource, as the engine does for an event
// scheduled in the past. A request at the clock is served.
func TestRequestBeforeClockPanics(t *testing.T) {
	eng := NewEngine()
	eng.RunUntil(100)
	iv := NewIntervals("membus-dis", eng)
	pool := NewIntervalPool("hpu-3", 2, eng)
	for _, c := range []struct {
		name    string
		acquire func()
	}{
		{"membus-dis", func() { iv.Acquire(99, 8) }},
		{"hpu-3", func() { pool.AcquireAny(99, 8) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := "sim: " + c.name + ": request at 99ps before now 100ps"; msg != want {
					t.Errorf("panic %q, want %q", msg, want)
				}
			}()
			c.acquire()
		}()
	}
	if s := iv.Acquire(100, 8); s != 100 {
		t.Fatalf("Acquire at the clock = %d, want 100", s)
	}
	if _, s := pool.AcquireAny(100, 8); s != 100 {
		t.Fatalf("AcquireAny at the clock = %d, want 100", s)
	}
}

// Property: no two reservations overlap.
func TestIntervalsNoOverlapProperty(t *testing.T) {
	type req struct{ At, Occ uint16 }
	f := func(reqs []req) bool {
		iv := NewIntervals("bus", NewEngine())
		var got []ivSpan
		for _, r := range reqs {
			occ := Time(r.Occ%500) + 1
			s := iv.Acquire(Time(r.At), occ)
			if s < Time(r.At) {
				return false
			}
			got = append(got, ivSpan{s, s + occ})
		}
		for i := range got {
			for j := i + 1; j < len(got); j++ {
				a, b := got[i], got[j]
				if a.start < b.end && b.start < a.end {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// naiveIntervals replicates the original front-to-back first-fit scan with
// no accelerations: the reference the optimized Intervals must match
// reservation for reservation (the determinism contract makes placement
// exactness load-bearing — see ARCHITECTURE.md).
type naiveIntervals struct {
	busy     []ivSpan
	floor    Time
	reserved Time
	prunes   int
}

// place returns the start and insertion index of a reservation, without
// committing it.
func (iv *naiveIntervals) place(earliest, occupancy Time) (start Time, i int) {
	if earliest < iv.floor {
		earliest = iv.floor
	}
	start = earliest
	for i < len(iv.busy) {
		sp := iv.busy[i]
		if sp.end <= start {
			i++
			continue
		}
		if start+occupancy <= sp.start {
			break
		}
		start = sp.end
		i++
	}
	return start, i
}

// commit reserves sp at index i, merging touching neighbors and halving
// the list into the floor past maxSpans.
func (iv *naiveIntervals) commit(i int, sp ivSpan) {
	iv.reserved += sp.end - sp.start
	if sp.start == sp.end {
		return
	}
	if i > 0 && iv.busy[i-1].end == sp.start {
		iv.busy[i-1].end = sp.end
		if i < len(iv.busy) && iv.busy[i].start == sp.end {
			iv.busy[i-1].end = iv.busy[i].end
			iv.busy = append(iv.busy[:i], iv.busy[i+1:]...)
		}
	} else if i < len(iv.busy) && iv.busy[i].start == sp.end {
		iv.busy[i].start = sp.start
	} else {
		iv.busy = append(iv.busy, ivSpan{})
		copy(iv.busy[i+1:], iv.busy[i:])
		iv.busy[i] = sp
	}
	if len(iv.busy) > maxSpans {
		half := len(iv.busy) / 2
		iv.floor = iv.busy[half-1].end
		iv.busy = append(iv.busy[:0], iv.busy[half:]...)
		iv.prunes++
	}
}

func (iv *naiveIntervals) acquire(earliest, occupancy Time) Time {
	start, i := iv.place(earliest, occupancy)
	iv.commit(i, ivSpan{start, start + occupancy})
	return start
}

func (iv *naiveIntervals) freeAt() Time {
	if len(iv.busy) == 0 {
		return iv.floor
	}
	return iv.busy[len(iv.busy)-1].end
}

// naivePool is IntervalPool's reference: it places the request on every
// server, takes the first minimum, and acquires on that server afresh.
type naivePool []naiveIntervals

func (p naivePool) acquireAny(earliest, occupancy Time) (idx int, start Time) {
	for i := range p {
		if s, _ := p[i].place(earliest, occupancy); i == 0 || s < start {
			idx, start = i, s
		}
	}
	return idx, p[idx].acquire(earliest, occupancy)
}

// TestIntervalsFastPathsMatchNaiveScan drives the optimized Intervals and
// the naive reference through identical randomized workloads shaped like
// the simulator's (mixed occupancy classes, lagging and leading earliest
// times, saturated and idle phases) and requires every returned start to
// be identical. The last trial sends three requests in four just past the
// tail, so the list outgrows maxSpans and placement runs on after prune
// has moved the floor and the finger.
func TestIntervalsFastPathsMatchNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial <= 20; trial++ {
		dense := trial == 20
		ops := 5000
		if dense {
			ops = 20000
		}
		iv := NewIntervals("t", NewEngine())
		ref := &naiveIntervals{}
		var frontier Time
		for op := 0; op < ops; op++ {
			var occ Time
			switch rng.Intn(4) {
			case 0:
				occ = 0 // zero-width reservations occupy nothing
			case 1:
				occ = Time(1 + rng.Intn(3)) // tiny (hole-filling)
			case 2:
				occ = Time(8 + rng.Intn(8)) // transaction-sized
			default:
				occ = Time(50 + rng.Intn(200)) // large
			}
			// earliest wanders: mostly lagging the frontier (the Fig 7a
			// regime), sometimes far ahead (idle bus).
			var earliest Time
			switch mode := rng.Intn(5); {
			case dense && rng.Intn(4) != 0:
				earliest = frontier + Time(1+rng.Intn(3)) // a new disjoint span
			case mode == 0:
				earliest = frontier + Time(rng.Intn(500)) // beyond the tail
			case mode == 1:
				earliest = 0 // maximally stale
			default:
				lag := Time(rng.Intn(2000))
				if lag > frontier {
					lag = frontier
				}
				earliest = frontier - lag
			}
			got := iv.Acquire(earliest, occ)
			want := ref.acquire(earliest, occ)
			if got != want {
				t.Fatalf("trial %d op %d: Acquire(%d, %d) = %d, reference scan = %d",
					trial, op, earliest, occ, got, want)
			}
			if end := got + occ; occ > 0 && end > frontier {
				frontier = end
			}
		}
		if iv.FreeAt() != frontier && len(iv.busy) > 0 && iv.busy[len(iv.busy)-1].end != frontier {
			t.Fatalf("trial %d: FreeAt %d disagrees with frontier %d", trial, iv.FreeAt(), frontier)
		}
		if dense && iv.floor == 0 {
			t.Fatalf("trial %d ended with %d spans and never pruned", trial, len(iv.busy))
		}
	}
}

// TestFirstEndAfterMatchesSortSearch pins the finger search to the binary
// search it replaced: for every list length up to 40, every probe time
// around each span end, and every finger from the head to one past the
// tail (a stale finger after a merge shrank the list), it returns
// sort.Search's index and leaves the finger there.
func TestFirstEndAfterMatchesSortSearch(t *testing.T) {
	iv := NewIntervals("t", NewEngine())
	for n := 0; n <= 40; n++ {
		for q := Time(0); q <= Time(10*n+11); q++ {
			want := sort.Search(n, func(j int) bool { return iv.busy[j].end > q })
			for h := 0; h <= n+1; h++ {
				iv.hint = h
				if got := iv.firstEndAfter(q); got != want || iv.hint != want {
					t.Fatalf("%d spans, t=%d, finger %d: firstEndAfter = %d (finger now %d), sort.Search = %d",
						n, q, h, got, iv.hint, want)
				}
			}
		}
		iv.busy = append(iv.busy, ivSpan{Time(10*n + 2), Time(10*n + 7)})
	}
}

// poolOracleMaxWork bounds one pool program's cost: the sum, over its
// requests, of the spans held on all servers, each of which a naive
// acquire may scan. A program stops when it is spent. The committed seeds
// and the unit tests run at this cap.
const poolOracleMaxWork = 1 << 26

// poolFuzzMaxWork is the smaller cap for fuzzed programs, so that bursts of
// disjoint spans cannot stall the fuzzer on a few deep inputs. It still
// admits prune on one server: laying its first 4,097 spans scans about
// 2^23 spans.
const poolFuzzMaxWork = 1 << 24

// poolRun is what runPoolOracle reports: the optimized pool, the number of
// requests after which the servers together had forgotten more of the
// history than before, and the number of times the naive pool pruned.
type poolRun struct {
	pool    *IntervalPool
	forgets int
	prunes  int
}

// runPoolOracle interprets program as a stream of IntervalPool requests,
// issues each to the optimized pool and to naivePool, fails t at the first
// server or start that differs, and reports the run. It stops after the
// last op or once maxWork is spent. Byte 0 sets the server count (1–8);
// each op is then a kind byte and two argument bytes a, b (missing bytes
// read as zero). A kind whose low four bits are all set lays down 1–512
// disjoint spans past the frontier, one round of equal requests at a time
// so each server takes one; any other kind is one AcquireAny whose
// occupancy class is kind bits 3–4 (0, 1–3, 8–15, or 50–250, sized by a)
// and whose earliest is picked by bits 5–7: a chain continuation of one of
// 16 handlers (the end of its previous reservation, handler b), a lag of
// up to 2,000 behind the frontier, b beyond the tail, or 0.
//
// The pool runs on an engine whose clock the program advances: when such
// a kind's low three bits c are not all clear, the clock first moves up to
// the frontier less (7-c)*300, and every request's earliest is raised to
// the clock, as a model's requests never precede its engine's. The naive
// pool keeps the whole history, less only what prune halves away, so the
// oracle checks that what the optimized pool forgets behind the clock moves
// no placement and no prune.
func runPoolOracle(t testing.TB, program []byte, maxWork int) poolRun {
	t.Helper()
	next := func() byte {
		if len(program) == 0 {
			return 0
		}
		b := program[0]
		program = program[1:]
		return b
	}
	k := 1 + int(next()%8)
	eng := NewEngine()
	run := poolRun{pool: NewIntervalPool("fuzz", k, eng)}
	ref := make(naivePool, k)
	var frontier Time
	var chain [16]Time
	work, gone := 0, 0
	acquire := func(op int, earliest, occ Time) Time {
		earliest = max(earliest, eng.Now())
		for i := range ref {
			work += len(ref[i].busy)
		}
		gi, gs := run.pool.AcquireAny(earliest, occ)
		wi, ws := ref.acquireAny(earliest, occ)
		if gi != wi || gs != ws {
			t.Fatalf("op %d: AcquireAny(%d, %d) at clock %d = server %d at %d, reference = server %d at %d",
				op, earliest, occ, eng.Now(), gi, gs, wi, ws)
		}
		forgotten := 0
		for i := range ref {
			s := run.pool.Server(i)
			if len(s.busy)+s.forgotten != len(ref[i].busy) {
				t.Fatalf("op %d: server %d holds %d spans and has forgotten %d; the reference holds %d",
					op, i, len(s.busy), s.forgotten, len(ref[i].busy))
			}
			forgotten += s.forgotten
		}
		if forgotten > gone {
			run.forgets++
		}
		gone = forgotten
		if end := gs + occ; occ > 0 && end > frontier {
			frontier = end
		}
		return gs
	}
	for op := 0; len(program) > 0 && work < maxWork; op++ {
		kind, a, b := next(), next(), next()
		if kind&15 == 15 {
			n := 1 + (int(a)<<8|int(b))%512
			width, gap := Time(1+kind>>4&7), Time(1+kind>>7)
			at := frontier + gap
			for j := 0; j < n && work < maxWork; j++ {
				if j > 0 && j%k == 0 {
					at += width + gap
				}
				acquire(op, at, width)
			}
			continue
		}
		if c := kind & 7; c != 0 {
			eng.RunUntil(max(frontier-Time(7-c)*300, eng.Now()))
		}
		var occ Time
		switch kind >> 3 & 3 {
		case 1:
			occ = Time(1 + a%3)
		case 2:
			occ = Time(8 + a%8)
		case 3:
			occ = Time(50 + int(a)%201)
		}
		switch mode := kind >> 5; {
		case mode < 4:
			h := b % 16
			chain[h] = acquire(op, chain[h], occ) + occ
		case mode < 6:
			lag := min(Time(b)*2000/255, frontier)
			acquire(op, frontier-lag, occ)
		case mode == 6:
			acquire(op, frontier+Time(b), occ)
		default:
			acquire(op, 0, occ)
		}
	}
	for i := range ref {
		s := run.pool.Server(i)
		if s.FreeAt() != ref[i].freeAt() || s.Busy != ref[i].reserved {
			t.Fatalf("server %d: FreeAt %d, Busy %d; reference FreeAt %d, Busy %d",
				i, s.FreeAt(), s.Busy, ref[i].freeAt(), ref[i].reserved)
		}
		run.prunes += ref[i].prunes
	}
	return run
}

// FuzzIntervalPoolMatchesNaive checks IntervalPool — early exit at the
// first server free at earliest, one placement per server, finger search,
// max-gap fast path, forgetting spans behind the clock — against naivePool
// on random request streams shaped like the HPU issue pool's: per-handler
// chains, lagging, leading and stale requests, bursts of disjoint spans
// that push lists past maxSpans, and a clock that advances under them.
// Every program runs at poolFuzzMaxWork; the seed corpus in
// testdata/fuzz/FuzzIntervalPoolMatchesNaive also runs at the full cap in
// TestIntervalPoolSeedsAtFullCap.
func FuzzIntervalPoolMatchesNaive(f *testing.F) {
	f.Fuzz(func(t *testing.T, program []byte) {
		runPoolOracle(t, program, poolFuzzMaxWork)
	})
}

// TestIntervalPoolSeedsAtFullCap replays every committed
// FuzzIntervalPoolMatchesNaive seed at poolOracleMaxWork, so no committed
// program loses depth to the fuzz target's smaller cap.
func TestIntervalPoolSeedsAtFullCap(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzIntervalPoolMatchesNaive")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// A corpus file is the version line and one []byte("...") value.
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: not a one-[]byte corpus file", ent.Name())
		}
		program, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", ent.Name(), err)
		}
		t.Run(ent.Name(), func(t *testing.T) { runPoolOracle(t, []byte(program), poolOracleMaxWork) })
	}
}

// TestIntervalPoolOracleReachesPrune pins that the pool oracle's decoder
// reaches prune from a short program, as the prune-1 corpus entry does:
// nine bursts of 512 disjoint spans on one server, then lagging requests
// that search the list after prune has moved its floor and finger.
func TestIntervalPoolOracleReachesPrune(t *testing.T) {
	program := []byte{0}
	for i := 0; i < 9; i++ {
		program = append(program, 0x1f, 1, 255) // 512 spans of width 2, gap 1
	}
	for i := 0; i < 40; i++ {
		program = append(program, 1<<3|4<<5, 1, byte(17*i)) // width 2, lagging
	}
	if run := runPoolOracle(t, program, poolOracleMaxWork); run.prunes == 0 {
		t.Fatalf("program left %d spans and never pruned", len(run.pool.Server(0).busy))
	}
}

// clockProgram builds a pool program for the given server count (1–8) that
// forgets many times and prunes: rounds of a 512-span burst, each followed
// by a request that first moves the clock to the frontier, so the next
// burst's first request on each server forgets the last; then cut bursts
// with the clock held, which push the history past maxSpans while less
// than half of it is forgotten, so prune cuts into spans that have not
// ended; and last, zero-width requests at the clock, which the floor prune
// raised past it pushes up, mixed with lagging ones.
func clockProgram(servers, rounds, cuts int) []byte {
	p := []byte{byte(servers - 1)}
	for r := 0; r < rounds; r++ {
		p = append(p, 0x1f, 1, 255)          // 512 spans of width 2, gap 1
		p = append(p, 2<<3|7, 0, byte(r%16)) // clock to the frontier; width 8 chained
	}
	for i := 0; i < cuts; i++ {
		p = append(p, 0x1f, 1, 255)
	}
	for i := 0; i < 64; i++ {
		p = append(p, 7<<5, 0, 0)               // zero width at 0, raised to the clock
		p = append(p, 1<<3|4<<5, 1, byte(17*i)) // width 2, lagging
	}
	return p
}

// TestIntervalPoolOracleForgetsAndPrunes pins that the oracle's clock
// reaches both of prune's cases, as the clock-prune-1 corpus entry does:
// one server forgets after every round, prune first halves a history whose
// older half is all forgotten and then one that is mostly held, and the
// floor it sets lies past the clock, where the zero-width requests find
// it. Forgetting spans by the held count alone, or pruning only the held
// spans, fails here.
func TestIntervalPoolOracleForgetsAndPrunes(t *testing.T) {
	run := runPoolOracle(t, clockProgram(1, 12, 9), poolOracleMaxWork)
	s, now := run.pool.Server(0), run.pool.clock.Now()
	if run.forgets < 11 || run.prunes < 2 || s.floor <= now {
		t.Fatalf("forgot after %d requests and pruned %d times, floor %d at clock %d; want at least 11 forgets, 2 prunes and the floor past the clock",
			run.forgets, run.prunes, s.floor, now)
	}
}
