package sim

// Intervals is a unit-capacity resource that accepts reservations in any
// time order: Acquire finds the earliest gap of the requested width at or
// after the requested time. The DMA bus needs this: a handler computes for
// hundreds of nanoseconds between its read and its write-back, and other
// initiators' transactions must be able to slot into that window (a plain
// busy-until timeline would head-of-line block them).
//
// Placement is first-fit and exact; the two accelerations below are pure
// data-structure shortcuts that return the same (start, index) the naive
// front-to-back scan would, which is what keeps simulated time bit-identical
// to the unoptimized resource (the determinism contract depends on it):
//
//   - the scan starts at the first span that can interact with the request
//     (a galloping search on span end, back from the tail, where requests
//     in simulated-time order find it) instead of at the list head;
//   - maxGapUB is a monotone upper bound on the widest free gap between
//     reserved spans, so a request wider than every gap skips the scan
//     entirely and lands at the tail — the steady state of a saturated
//     resource fed with fixed-size transactions (the Fig. 7a scatter bus).
type Intervals struct {
	Name string
	// busy holds disjoint reserved intervals sorted by start.
	busy []ivSpan
	// floor truncates history: times before it count as busy. It advances
	// when the interval list is pruned, keeping memory bounded on long
	// simulations at the cost of slightly conservative early placement.
	floor Time
	// Busy accumulates reserved time.
	Busy Time
	// maxGapUB bounds every free gap inside [floor, last span end) from
	// above. Gap creation (a reservation landing beyond the tail) raises
	// it; splits and merges only shrink true gaps, so the bound stays
	// valid; a full scan that reaches the tail recomputes it exactly.
	maxGapUB Time
}

type ivSpan struct{ start, end Time }

// maxSpans bounds the interval list; beyond it the oldest half collapses
// into the floor.
const maxSpans = 4096

// NewIntervals returns an idle interval resource.
func NewIntervals(name string) *Intervals { return &Intervals{Name: name} }

// Reset returns the resource to its post-construction (idle) state, keeping
// the interval slice's capacity for reuse.
func (iv *Intervals) Reset() {
	iv.busy = iv.busy[:0]
	iv.floor = 0
	iv.Busy = 0
	iv.maxGapUB = 0
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
// Ends ascend, and requests mostly arrive in simulated-time order, so the
// answer sits at or near the tail: the search probes n-1, n-2, n-4, ...
// until a span ends at or before t, then binary-searches that bracket.
func (iv *Intervals) firstEndAfter(t Time) int {
	n := len(iv.busy)
	lo, hi := 0, n // the answer lies in [lo, hi]
	for d := 1; d <= n; d <<= 1 {
		if iv.busy[n-d].end <= t {
			lo = n - d + 1
			break
		}
		hi = n - d
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if iv.busy[m].end > t {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return hi
}

// Peek returns where a reservation would start, without reserving.
func (iv *Intervals) Peek(earliest, occupancy Time) (start Time) {
	start, _ = iv.place(earliest, occupancy)
	return start
}

// Acquire reserves occupancy at the earliest instant >= earliest with a
// free gap of that width, and returns the reservation start.
func (iv *Intervals) Acquire(earliest, occupancy Time) (start Time) {
	start, i := iv.place(earliest, occupancy)
	iv.Busy += occupancy
	iv.insert(i, ivSpan{start, start + occupancy})
	return start
}

// insert places sp at index i, merging with touching neighbors and
// maintaining the gap upper bound: only a reservation placed past the
// current tail (or past the floor of an empty list) creates a new gap —
// every other insertion splits or closes existing gaps, which can only
// shrink them.
func (iv *Intervals) insert(i int, sp ivSpan) {
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

func (iv *Intervals) prune() {
	if len(iv.busy) <= maxSpans {
		return
	}
	half := len(iv.busy) / 2
	iv.floor = iv.busy[half-1].end
	iv.busy = append(iv.busy[:0], iv.busy[half:]...)
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
	servers []*Intervals
}

// NewIntervalPool returns a pool of k idle interval servers.
func NewIntervalPool(name string, k int) *IntervalPool {
	if k <= 0 {
		panic("sim: interval pool size must be positive")
	}
	p := &IntervalPool{Name: name, servers: make([]*Intervals, k)}
	for i := range p.servers {
		p.servers[i] = NewIntervals(name)
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
func (p *IntervalPool) AcquireAny(earliest, occupancy Time) (idx int, start Time) {
	best := 0
	bestStart := p.servers[0].Peek(earliest, occupancy)
	for i := 1; i < len(p.servers); i++ {
		if s := p.servers[i].Peek(earliest, occupancy); s < bestStart {
			best, bestStart = i, s
		}
	}
	return best, p.servers[best].Acquire(earliest, occupancy)
}

// Server returns server idx, for utilization queries.
func (p *IntervalPool) Server(idx int) *Intervals { return p.servers[idx] }
