package sim

import "fmt"

// Intervals is a unit-capacity resource that accepts reservations in any
// time order: Acquire finds the earliest gap of the requested width at or
// after the requested time. The DMA bus needs this: a handler computes for
// hundreds of nanoseconds between its read and its write-back, and other
// initiators' transactions must be able to slot into that window (a plain
// busy-until timeline would head-of-line block them).
//
// Placement is first-fit and exact; the accelerations below are pure
// data-structure shortcuts that return the same (server, start, index) the
// naive front-to-back scan would, which is what keeps simulated time
// bit-identical to the unoptimized resource (the determinism contract
// depends on it):
//
//   - the scan starts at the first span that can interact with the request,
//     found by a galloping search on span end from a finger (the previous
//     answer) instead of from the list head: consecutive requests on one
//     list land close together, so the search rarely probes more than one
//     or two spans;
//   - maxGapUB is a monotone upper bound on the widest free gap between
//     reserved spans, so a request wider than every gap skips the scan
//     entirely and lands at the tail — the steady state of a saturated
//     resource fed with fixed-size transactions (the Fig. 7a scatter bus);
//   - IntervalPool.AcquireAny stops at the first server that can start at
//     the requested time (none starts sooner, and ties go to the lower
//     index) and commits that server's placement as found, instead of
//     placing on every server and then placing the winner again;
//   - the list forgets spans that ended before its engine's clock (see
//     forget), so it holds what is in flight rather than everything ever
//     reserved.
//
// The clock is the contract that makes forgetting exact: no request may
// start before the engine's Now, and Acquire panics with the resource's
// name if one does, as the engine does for an event scheduled in the past.
type Intervals struct {
	Name string
	// clock is the engine whose Now no request precedes.
	clock *Engine
	// busy holds disjoint reserved intervals sorted by start.
	busy []ivSpan
	// floor truncates history: times before it count as busy. Prune raises
	// it into the history, keeping memory bounded on long simulations at
	// the cost of slightly conservative early placement; forget raises it
	// to the end of the last span it drops, which precedes every request
	// and so moves no placement.
	floor Time
	// forgotten counts the spans forget dropped that the full history
	// still holds (prune has not yet halved them away), so that prune
	// halves that history at the same moment and at the same span as it
	// would if nothing were forgotten.
	forgotten int
	// kept is the clock at which forget last found too little to drop.
	// Until the clock moves nothing more can end before it (every later
	// reservation starts at or after it), so forget skips the look.
	kept Time
	// Busy accumulates reserved time.
	Busy Time
	// maxGapUB bounds every free gap inside [floor, last span end) from
	// above. Gap creation (a reservation landing beyond the tail) raises
	// it; splits and merges only shrink true gaps, so the bound stays
	// valid; a full scan that reaches the tail recomputes it exactly.
	maxGapUB Time
	// hint is the search finger: firstEndAfter's previous answer, where
	// its next search starts. Any value is correct (it is clamped to
	// len(busy)); a close one is fast.
	hint int
}

type ivSpan struct{ start, end Time }

// maxSpans bounds the history, forgotten spans included; beyond it the
// oldest half collapses into the floor.
const maxSpans = 4096

// forgetAt is the number of held spans at which a reservation looks for
// spans behind the clock: once the first half of them ended before it,
// forget drops every span that did. Dropping at least half of the list at
// a time keeps the copy amortized O(1) per span. A timeline with little in
// flight thus holds at most 8 spans; at 64, a Fig 5a regeneration
// allocated 24% more bytes, and at 2 only 5% fewer.
const forgetAt = 8

// NewIntervals returns an idle interval resource whose requests never
// precede clock's Now.
func NewIntervals(name string, clock *Engine) *Intervals {
	return &Intervals{Name: name, clock: clock}
}

// Reset returns the resource to its post-construction (idle) state, keeping
// the interval slice's capacity for reuse.
func (iv *Intervals) Reset() {
	iv.busy = iv.busy[:0]
	iv.floor = 0
	iv.forgotten = 0
	iv.kept = 0
	iv.Busy = 0
	iv.maxGapUB = 0
	iv.hint = 0
}

// place finds the earliest feasible start >= earliest for a reservation of
// the given width and the insertion index, without committing. It returns
// exactly what a front-to-back first-fit scan would return.
func (iv *Intervals) place(earliest, occupancy Time) (start Time, idx int) {
	if earliest < iv.floor {
		earliest = iv.floor
	}
	n := len(iv.busy)
	if n == 0 {
		return earliest, 0
	}
	// Fast path: every gap between spans is narrower than the request, so
	// the scan cannot break early and the placement is after the tail.
	if last := iv.busy[n-1].end; occupancy > iv.maxGapUB {
		if earliest > last {
			return earliest, n
		}
		return last, n
	}
	// Spans ending at or before earliest can neither collide with the
	// request nor terminate the scan (their start precedes earliest too),
	// so the scan may begin at the first span with end > earliest.
	start = earliest
	i := iv.firstEndAfter(earliest)
	scannedAll := i == 0
	var widest Time
	for i < n {
		sp := iv.busy[i]
		if sp.end <= start {
			i++
			continue
		}
		if start+occupancy <= sp.start {
			return start, i // fits in the gap before span i
		}
		if i+1 < n {
			if gap := iv.busy[i+1].start - sp.end; gap > widest {
				widest = gap
			}
		}
		// Collide: move past this span.
		start = sp.end
		i++
	}
	if scannedAll {
		// The scan visited every interior gap and found none wide enough;
		// re-anchor the upper bound exactly (the leading gap below the
		// first span is measured from the floor, which earliest may sit
		// above).
		if lead := iv.busy[0].start - iv.floor; lead > widest {
			widest = lead
		}
		iv.maxGapUB = widest
	}
	return start, i
}

// firstEndAfter returns the index of the first span ending after t, or
// len(busy) if none does — what sort.Search returns for that predicate.
// Ends ascend, so the search gallops from the finger in the direction the
// predicate points (probing hint±1, ±2, ±4, ...) until it passes the
// answer, then binary-searches the last step. With the finger at the tail
// this is a gallop back from the tail: one probe for a request in
// simulated-time order.
func (iv *Intervals) firstEndAfter(t Time) int {
	n := len(iv.busy)
	h := min(iv.hint, n)
	lo, hi := 0, n // the answer lies in [lo, hi]
	if h < n && iv.busy[h].end <= t {
		lo = h + 1
		for d := 1; h+d < n; d <<= 1 {
			if iv.busy[h+d].end > t {
				hi = h + d
				break
			}
			lo = h + d + 1
		}
	} else {
		hi = h
		for d := 1; d <= h; d <<= 1 {
			if iv.busy[h-d].end <= t {
				lo = h - d + 1
				break
			}
			hi = h - d
		}
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if iv.busy[m].end > t {
			hi = m
		} else {
			lo = m + 1
		}
	}
	iv.hint = hi
	return hi
}

// clockAt returns clock's Now after checking that a request at earliest
// does not precede it. A request in the past is a model bug, as an event
// scheduled in the past is (Engine.checkAt), and it would make forget
// inexact, so it panics with the resource's name.
func clockAt(clock *Engine, name string, earliest Time) Time {
	now := clock.Now()
	if earliest < now {
		panicBeforeClock(name, earliest, now)
	}
	return now
}

// panicBeforeClock is clockAt's failure, kept out of line so that clockAt
// inlines on the request path.
//
//go:noinline
func panicBeforeClock(name string, earliest, now Time) {
	panic(fmt.Sprintf("sim: %s: request at %v before now %v", name, earliest, now))
}

// forget drops the prefix of spans that ended before now, once forgetAt
// spans are held and the first half of them has ended. It is exact: every
// later request starts at or after now, so a span that ended strictly
// before it can neither collide with the request, nor end its scan, nor
// touch (and so merge with) its reservation; the floor rises to the last
// dropped end, which precedes every request too. The checks that usually
// end it inline on the request path.
func (iv *Intervals) forget(now Time) {
	if len(iv.busy) >= forgetAt && now != iv.kept {
		iv.dropBehind(now)
	}
}

// dropBehind is forget's look at the list and its drop.
func (iv *Intervals) dropBehind(now Time) {
	if iv.busy[len(iv.busy)/2-1].end >= now {
		iv.kept = now
		return
	}
	k := iv.firstEndAfter(now - 1) // the first span that ends at or after now
	iv.floor = iv.busy[k-1].end
	iv.busy = append(iv.busy[:0], iv.busy[k:]...)
	iv.forgotten += k
	iv.hint = 0
}

// Held returns the number of spans the resource holds: what it keeps in
// memory, for tests and diagnostics.
func (iv *Intervals) Held() int { return len(iv.busy) }

// Acquire reserves occupancy at the earliest instant >= earliest with a
// free gap of that width, and returns the reservation start. earliest must
// not precede the clock.
func (iv *Intervals) Acquire(earliest, occupancy Time) (start Time) {
	now := clockAt(iv.clock, iv.Name, earliest)
	start, i := iv.place(earliest, occupancy)
	iv.commit(i, ivSpan{start, start + occupancy})
	iv.forget(now)
	return start
}

// commit reserves sp, which place put at index i, merging it with touching
// neighbors and maintaining the gap upper bound: only a reservation placed
// past the current tail (or past the floor of an empty list) creates a new
// gap — every other insertion splits or closes existing gaps, which can
// only shrink them.
func (iv *Intervals) commit(i int, sp ivSpan) {
	iv.Busy += sp.end - sp.start
	if sp.start == sp.end {
		return // zero-width reservations occupy nothing
	}
	if i == len(iv.busy) {
		prevEnd := iv.floor
		if i > 0 {
			prevEnd = iv.busy[i-1].end
		}
		if gap := sp.start - prevEnd; gap > iv.maxGapUB {
			iv.maxGapUB = gap
		}
	}
	// Merge left.
	if i > 0 && iv.busy[i-1].end == sp.start {
		iv.busy[i-1].end = sp.end
		// Merge right if now touching.
		if i < len(iv.busy) && iv.busy[i].start == sp.end {
			iv.busy[i-1].end = iv.busy[i].end
			iv.busy = append(iv.busy[:i], iv.busy[i+1:]...)
		}
		iv.prune()
		return
	}
	// Merge right.
	if i < len(iv.busy) && iv.busy[i].start == sp.end {
		iv.busy[i].start = sp.start
		iv.prune()
		return
	}
	iv.busy = append(iv.busy, ivSpan{})
	copy(iv.busy[i+1:], iv.busy[i:])
	iv.busy[i] = sp
	iv.prune()
}

// prune halves the history once it outgrows maxSpans: its older half
// collapses into the floor. Forgotten spans are the oldest of the history,
// so when forget already dropped that half only the count moves (the floor
// it would set is behind the one forget set).
func (iv *Intervals) prune() {
	total := len(iv.busy) + iv.forgotten
	if total <= maxSpans {
		return
	}
	half := total / 2
	if half <= iv.forgotten {
		iv.forgotten -= half
		return
	}
	k := half - iv.forgotten
	iv.floor = iv.busy[k-1].end
	iv.busy = append(iv.busy[:0], iv.busy[k:]...)
	iv.forgotten = 0
	iv.hint = max(iv.hint-k, 0)
}

// FreeAt returns the end of the last reservation (the time after which the
// resource is certainly idle).
func (iv *Intervals) FreeAt() Time {
	if len(iv.busy) == 0 {
		return iv.floor
	}
	return iv.busy[len(iv.busy)-1].end
}

// Utilization returns the busy fraction of [0, now].
func (iv *Intervals) Utilization(now Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(iv.Busy) / float64(now)
}

// IntervalPool is k identical interval-scheduled servers (the HPU issue
// units): AcquireAny places work on the server that can start it earliest,
// allowing later-issued work to backfill idle windows between earlier
// reservations.
type IntervalPool struct {
	Name    string
	clock   *Engine
	servers []*Intervals
}

// NewIntervalPool returns a pool of k idle interval servers whose requests
// never precede clock's Now.
func NewIntervalPool(name string, k int, clock *Engine) *IntervalPool {
	if k <= 0 {
		panic("sim: interval pool size must be positive")
	}
	p := &IntervalPool{Name: name, clock: clock, servers: make([]*Intervals, k)}
	for i := range p.servers {
		p.servers[i] = NewIntervals(name, clock)
	}
	return p
}

// Size returns the number of servers.
func (p *IntervalPool) Size() int { return len(p.servers) }

// Reset returns every server to its post-construction (idle) state.
func (p *IntervalPool) Reset() {
	for _, s := range p.servers {
		s.Reset()
	}
}

// AcquireAny reserves occupancy on the server able to start it earliest
// (ties toward lower indices) and returns the server index and start time.
// No server can start before earliest, so the scan stops at the first
// server that starts there, and the winner's placement is committed as
// found rather than searched again. earliest must not precede the clock.
func (p *IntervalPool) AcquireAny(earliest, occupancy Time) (idx int, start Time) {
	now := clockAt(p.clock, p.Name, earliest)
	at := 0
	for i, s := range p.servers {
		st, j := s.place(earliest, occupancy)
		if i == 0 || st < start {
			idx, start, at = i, st, j
			if st == earliest {
				break
			}
		}
	}
	s := p.servers[idx]
	s.commit(at, ivSpan{start, start + occupancy})
	s.forget(now)
	return idx, start
}

// Server returns server idx, for utilization queries.
func (p *IntervalPool) Server(idx int) *Intervals { return p.servers[idx] }
