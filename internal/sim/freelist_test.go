package sim

import "testing"

type freeRec struct {
	id   int
	name string
	next *freeRec
}

// TestFreeList pins the pooling contract every layer relies on: reuse is
// LIFO, a record comes back zeroed however dirty it was put, Len tracks
// the idle records, and a warm Get/Put cycle allocates nothing.
func TestFreeList(t *testing.T) {
	var l FreeList[freeRec]
	if l.Len() != 0 {
		t.Fatalf("empty list Len = %d", l.Len())
	}
	a, b := l.Get(), l.Get()
	if a == b || *a != (freeRec{}) || *b != (freeRec{}) {
		t.Fatal("an empty list must hand out distinct zeroed records")
	}
	a.id, a.name, a.next = 1, "a", b
	b.id, b.name, b.next = 2, "b", a
	l.Put(a)
	l.Put(b)
	if l.Len() != 2 {
		t.Fatalf("Len = %d after two puts, want 2", l.Len())
	}
	if got := l.Get(); got != b {
		t.Fatal("Get did not return the most recently put record (LIFO)")
	} else if *got != (freeRec{}) {
		t.Fatalf("recycled record not zeroed: %+v", *got)
	}
	if got := l.Get(); got != a || *got != (freeRec{}) {
		t.Fatalf("second Get = %p %+v, want the zeroed first record %p", got, *got, a)
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %d after draining, want 0", l.Len())
	}

	l.Put(a)
	l.Put(b)
	allocs := testing.AllocsPerRun(100, func() {
		r := l.Get()
		r.id, r.name = 3, "warm"
		l.Put(r)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put = %.1f allocs, want 0", allocs)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d after steady state, want 2", l.Len())
	}
}
