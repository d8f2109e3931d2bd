package sim

// FreeList is an engine-owned pool of *T records, the one recycling
// primitive of the simulator's hot paths. It is a plain LIFO slice rather
// than a sync.Pool: an engine is single-threaded and its reuse order must
// be deterministic, never GC- or scheduler-dependent. The zero value is an
// empty list ready for use.
//
// Put zeroes a record before pushing it, so Get always returns a zeroed
// record, fresh or recycled, and object identity cannot carry state from
// one use to the next: pooling changes allocation behaviour only, never
// simulated time. A caller must not touch a record after putting it back.
type FreeList[T any] struct {
	free []*T
}

// Get pops the most recently recycled record, or allocates a new one when
// the list is empty. Either way the record is zeroed.
func (l *FreeList[T]) Get() *T {
	if n := len(l.free); n > 0 {
		p := l.free[n-1]
		l.free = l.free[:n-1]
		return p
	}
	return new(T)
}

// Put zeroes p and pushes it for reuse.
func (l *FreeList[T]) Put(p *T) {
	var zero T
	*p = zero
	l.free = append(l.free, p)
}

// Len reports how many records sit in the list (retention tests assert a
// pool returns to its idle size).
func (l *FreeList[T]) Len() int { return len(l.free) }
