package membus

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestConfigsMatchPaper(t *testing.T) {
	d := Discrete()
	if d.L != 250*sim.Nanosecond {
		t.Errorf("discrete L = %v, want 250ns", d.L)
	}
	// 64 GiB/s => ~15.6 ps/B
	if bw := 1e15 / float64(d.GFemtoPerByte); bw < 60e9 || bw > 70e9 {
		t.Errorf("discrete bandwidth = %.1f GB/s, want ~64", bw/1e9)
	}
	i := Integrated()
	if i.L != 50*sim.Nanosecond {
		t.Errorf("integrated L = %v, want 50ns", i.L)
	}
	if bw := 1e15 / float64(i.GFemtoPerByte); bw < 140e9 || bw > 160e9 {
		t.Errorf("integrated bandwidth = %.1f GB/s, want ~150", bw/1e9)
	}
}

func TestWriteTimesAndVisibility(t *testing.T) {
	b := New(Discrete(), sim.NewEngine())
	free, visible := b.Write(0, 4096)
	occ := b.Occupancy(4096)
	if free != occ {
		t.Errorf("initiator free at %v, want %v", free, occ)
	}
	if visible != occ+b.L {
		t.Errorf("visible at %v, want %v", visible, occ+b.L)
	}
}

func TestReadPaysTwoLatencies(t *testing.T) {
	b := New(Integrated(), sim.NewEngine())
	ready := b.Read(0, 1024)
	want := 2*b.L + b.Occupancy(1024)
	if ready != want {
		t.Errorf("read ready at %v, want %v", ready, want)
	}
}

func TestSmallTransactionsPayMinimum(t *testing.T) {
	b := New(Integrated(), sim.NewEngine())
	if got := b.Occupancy(1); got != b.MinTransaction {
		t.Errorf("Occupancy(1) = %v, want MinTransaction %v", got, b.MinTransaction)
	}
	// Large transactions exceed the minimum.
	if got := b.Occupancy(1 << 20); got <= b.MinTransaction {
		t.Errorf("Occupancy(1MiB) = %v, should exceed MinTransaction", got)
	}
}

func TestBusContentionSerializesOccupancy(t *testing.T) {
	b := New(Integrated(), sim.NewEngine())
	// Two simultaneous writes: the second's data occupies the bus after the
	// first's.
	_, v1 := b.Write(0, 4096)
	_, v2 := b.Write(0, 4096)
	if v2 != v1+b.Occupancy(4096) {
		t.Errorf("second write visible at %v, want %v", v2, v1+b.Occupancy(4096))
	}
	if b.Transactions != 2 || b.BytesMoved != 8192 {
		t.Errorf("counters: %d transactions %d bytes", b.Transactions, b.BytesMoved)
	}
}

func TestAtomicCostsRoundTripPlusTwoTransfers(t *testing.T) {
	b := New(Discrete(), sim.NewEngine())
	done := b.Atomic(0, 8)
	want := 2*b.L + 2*b.Occupancy(8)
	if done != want {
		t.Errorf("atomic done at %v, want %v", done, want)
	}
}

// Property: completion times never decrease as more traffic is added, and a
// read is never faster than its intrinsic minimum.
func TestBusMonotoneProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		b := New(Discrete(), sim.NewEngine())
		prev := sim.Time(0)
		for _, s := range sizes {
			ready := b.Read(0, int(s))
			if ready < prev {
				return false
			}
			if ready < 2*b.L+b.Occupancy(int(s)) {
				return false
			}
			prev = ready
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUtilization(t *testing.T) {
	b := New(Integrated(), sim.NewEngine())
	b.Write(0, 1<<20) // ~7us of occupancy
	occ := b.Occupancy(1 << 20)
	u := b.Utilization(2 * occ)
	if u < 0.49 || u > 0.51 {
		t.Errorf("utilization = %v, want ~0.5", u)
	}
}
