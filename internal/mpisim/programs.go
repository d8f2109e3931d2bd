package mpisim

// ProgramBuffer is a caller-owned, grow-only arena for building rank
// program sets in place. Replay sweeps (Table 5c) build a fresh program set
// for every calibration probe and every replay; constructing those op
// slices from scratch dominated the sweep's remaining allocations once the
// engines themselves became reusable. A ProgramBuffer keeps the [][]Op
// spine and every per-rank []Op across builds, so a warm buffer rebuilds a
// program set without allocating. A periodic program is stored once: its
// first pass, then OpRepeat with the pass count, so a set's size does not
// grow with the number of passes.
//
// Ownership: the builder (apps.App.ProgramsInto) writes into the buffer and
// hands the result to engines (New or Engine.Reset), which reference the
// slices until their next Reset. Engines only read a program set (a rank's
// position in it, its pass and tag offset included, lives on the engine),
// so several may Run on one set at once, each on its own goroutine. A buffer
// must not be rebuilt while an engine bound to its previous contents may
// still Run: the bench sweeps build, run every replay of the set (Table
// 5c's host and sPIN replays at once), join them, and only then build
// again. The zero value is ready for use.
type ProgramBuffer struct {
	progs [][]Op
}

// Ranks returns a program set of length ranks whose per-rank slices are
// emptied but keep their capacity. The caller appends each rank's ops to
// set[i] and stores the result back (append may move a slice the first time
// a rank's program grows).
func (b *ProgramBuffer) Ranks(ranks int) [][]Op {
	if cap(b.progs) < ranks {
		next := make([][]Op, ranks)
		copy(next, b.progs[:cap(b.progs)])
		b.progs = next
	}
	b.progs = b.progs[:ranks]
	for i := range b.progs {
		b.progs[i] = b.progs[i][:0]
	}
	return b.progs
}
