package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestIntervalsInOrder(t *testing.T) {
	iv := NewIntervals("bus")
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
	iv := NewIntervals("bus")
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
	iv := NewIntervals("bus")
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
	iv := NewIntervals("bus")
	iv.Acquire(0, 100)
	if s := iv.Acquire(50, 0); s != 100 {
		t.Fatalf("zero-occ inside busy = %v, want 100", s)
	}
	if len(iv.busy) != 1 {
		t.Fatal("zero-width reservation should not be stored")
	}
}

func TestIntervalsPruneBoundsMemory(t *testing.T) {
	iv := NewIntervals("bus")
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

// Property: no two reservations overlap.
func TestIntervalsNoOverlapProperty(t *testing.T) {
	type req struct{ At, Occ uint16 }
	f := func(reqs []req) bool {
		iv := NewIntervals("bus")
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
	busy  []ivSpan
	floor Time
}

func (iv *naiveIntervals) acquire(earliest, occupancy Time) Time {
	if earliest < iv.floor {
		earliest = iv.floor
	}
	start := earliest
	i := 0
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
	if start != start+occupancy {
		sp := ivSpan{start, start + occupancy}
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
		}
	}
	return start
}

// TestIntervalsFastPathsMatchNaiveScan drives the optimized Intervals and
// the naive reference through identical randomized workloads shaped like
// the simulator's (mixed occupancy classes, lagging and leading earliest
// times, saturated and idle phases) and requires every returned start to
// be identical.
func TestIntervalsFastPathsMatchNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		iv := NewIntervals("t")
		ref := &naiveIntervals{}
		var frontier Time
		for op := 0; op < 5000; op++ {
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
			switch rng.Intn(5) {
			case 0:
				earliest = frontier + Time(rng.Intn(500)) // beyond the tail
			case 1:
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
	}
}

// TestFirstEndAfterMatchesSortSearch pins the galloping scan-start search
// to the binary search it replaced: for every list length up to 40 and
// every probe time around each span end, it returns sort.Search's index.
func TestFirstEndAfterMatchesSortSearch(t *testing.T) {
	iv := NewIntervals("t")
	for n := 0; n <= 40; n++ {
		for q := Time(0); q <= Time(10*n+11); q++ {
			want := sort.Search(n, func(j int) bool { return iv.busy[j].end > q })
			if got := iv.firstEndAfter(q); got != want {
				t.Fatalf("%d spans, t=%d: firstEndAfter = %d, sort.Search = %d", n, q, got, want)
			}
		}
		iv.busy = append(iv.busy, ivSpan{Time(10*n + 2), Time(10*n + 7)})
	}
}
