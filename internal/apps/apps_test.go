package apps

import (
	"testing"

	"repro/internal/mpisim"
	"repro/internal/sim"
)

func TestSuiteShapes(t *testing.T) {
	for _, a := range Suite() {
		prod := 1
		for _, d := range a.Dims {
			prod *= d
		}
		if prod != a.Ranks {
			t.Errorf("%s: dims %v do not decompose %d ranks", a.Name, a.Dims, a.Ranks)
		}
		if len(a.HaloBytes) != len(a.Dims) {
			t.Errorf("%s: halo sizes do not match dims", a.Name)
		}
		if a.TargetP2PFraction <= 0 || a.TargetP2PFraction >= 0.2 {
			t.Errorf("%s: implausible p2p fraction %v", a.Name, a.TargetP2PFraction)
		}
	}
}

func TestCartesianNeighborsAreSymmetric(t *testing.T) {
	dims := []int{3, 4, 6}
	for rank := 0; rank < 72; rank++ {
		for d := range dims {
			up := neighbor(rank, dims, d, +1)
			if neighbor(up, dims, d, -1) != rank {
				t.Fatalf("rank %d dim %d: +1 then -1 is not the identity", rank, d)
			}
		}
	}
}

func TestCoordsRoundTrip(t *testing.T) {
	dims := []int{2, 2, 4, 4}
	for rank := 0; rank < 64; rank++ {
		if got := rankOf(coords(rank, dims), dims); got != rank {
			t.Fatalf("rank %d round-trips to %d", rank, got)
		}
	}
}

// unroll expands a program's trailing OpRepeat into the passes it stands
// for, adding pass×stride to every send and receive tag.
func unroll(prog []mpisim.Op) []mpisim.Op {
	n := len(prog)
	if n == 0 || prog[n-1].Kind != mpisim.OpRepeat {
		return prog
	}
	rep, body := prog[n-1], prog[:n-1]
	var out []mpisim.Op
	for pass := 0; pass < rep.Size; pass++ {
		for _, op := range body {
			if op.Kind == mpisim.OpIsend || op.Kind == mpisim.OpIrecv {
				op.Tag += uint64(pass) * rep.Tag
			}
			out = append(out, op)
		}
	}
	return out
}

// TestProgramsUnrollToHaloIterations pins the looped program against the
// form that stored every iteration: iteration it's tags are it<<16 | d<<2
// | dir, each iteration posts its receives, sends its faces, computes and
// waits.
func TestProgramsUnrollToHaloIterations(t *testing.T) {
	const iters, compute = 7, 3 * sim.Microsecond
	for _, a := range Suite() {
		for r, prog := range a.Programs(iters, compute) {
			var want []mpisim.Op
			for it := 0; it < iters; it++ {
				for d := range a.Dims {
					up, down := neighbor(r, a.Dims, d, +1), neighbor(r, a.Dims, d, -1)
					tagUp := uint64(it)<<16 | uint64(d)<<2 | 1
					tagDown := uint64(it)<<16 | uint64(d)<<2 | 2
					want = append(want,
						mpisim.Op{Kind: mpisim.OpIrecv, Peer: down, Tag: tagUp, Size: a.HaloBytes[d]},
						mpisim.Op{Kind: mpisim.OpIrecv, Peer: up, Tag: tagDown, Size: a.HaloBytes[d]},
						mpisim.Op{Kind: mpisim.OpIsend, Peer: up, Tag: tagUp, Size: a.HaloBytes[d]},
						mpisim.Op{Kind: mpisim.OpIsend, Peer: down, Tag: tagDown, Size: a.HaloBytes[d]},
					)
				}
				want = append(want, mpisim.Op{Kind: mpisim.OpCompute, Dur: compute}, mpisim.Op{Kind: mpisim.OpWaitAll})
			}
			got := unroll(prog)
			if len(got) != len(want) {
				t.Fatalf("%s-%d rank %d: %d ops unrolled, want %d", a.Name, a.Ranks, r, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s-%d rank %d op %d: %+v, want %+v", a.Name, a.Ranks, r, i, got[i], want[i])
				}
			}
		}
	}
}

// TestProgramLengthIndependentOfIterations pins that a rank's program
// stores its halo iteration once: a 120-iteration program is as long as a
// 10-iteration one.
func TestProgramLengthIndependentOfIterations(t *testing.T) {
	for _, a := range Suite() {
		short, long := a.Programs(10, sim.Microsecond), a.Programs(120, sim.Microsecond)
		for r := range short {
			if len(long[r]) != len(short[r]) {
				t.Fatalf("%s-%d rank %d: %d ops at 120 iterations, %d at 10", a.Name, a.Ranks, r, len(long[r]), len(short[r]))
			}
		}
	}
}

func TestProgramsPairSendsAndReceives(t *testing.T) {
	a := App{Name: "t", Ranks: 8, Dims: []int{2, 4}, HaloBytes: []int{512, 512}, TargetP2PFraction: 0.05}
	progs := a.Programs(3, sim.Microsecond)
	if len(progs) != 8 {
		t.Fatalf("%d programs", len(progs))
	}
	// Globally, sends and receives of every pass must pair exactly by
	// (src,dst,tag).
	type key struct {
		src, dst int
		tag      uint64
	}
	sends := map[key]int{}
	recvs := map[key]int{}
	for r, prog := range progs {
		for _, op := range unroll(prog) {
			switch op.Kind {
			case mpisim.OpIsend:
				sends[key{r, op.Peer, op.Tag}]++
			case mpisim.OpIrecv:
				recvs[key{op.Peer, r, op.Tag}]++
			}
		}
	}
	if want := int(a.MessagesPerIteration()) * 3; len(sends) != want {
		t.Fatalf("%d distinct sends over 3 iterations, want %d", len(sends), want)
	}
	for k, n := range sends {
		if recvs[k] != n {
			t.Fatalf("unmatched send %+v: %d sends, %d recvs", k, n, recvs[k])
		}
	}
	for k, n := range recvs {
		if sends[k] != n {
			t.Fatalf("unmatched recv %+v", k)
		}
	}
}

func TestProgramsRunToCompletion(t *testing.T) {
	a := App{Name: "t", Ranks: 8, Dims: []int{2, 4}, HaloBytes: []int{4096, 16384}, TargetP2PFraction: 0.05}
	e, err := mpisim.New(mpisim.DefaultConfig(mpisim.SpinMatching), a.Programs(5, 2*sim.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != a.MessagesPerIteration()*5 {
		t.Fatalf("messages = %d, want %d", res.Messages, a.MessagesPerIteration()*5)
	}
}

func TestCalibrateProducesPositiveCompute(t *testing.T) {
	a := App{Name: "t", Ranks: 4, Dims: []int{2, 2}, HaloBytes: []int{8192, 8192}, TargetP2PFraction: 0.05}
	d, err := a.Calibrate(Replay(mpisim.DefaultConfig(mpisim.HostMatching)), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatalf("compute = %v", d)
	}
	// 5% target => compute is ~19x the comm time, i.e. clearly dominant.
	if d < 10*sim.Microsecond {
		t.Fatalf("calibrated compute %v implausibly small", d)
	}
}

// TestNeighborMatchesCoordsReference pins the allocation-free neighbor
// arithmetic against the coordinate-vector reference implementation it
// replaced, across every suite decomposition and both directions.
func TestNeighborMatchesCoordsReference(t *testing.T) {
	ref := func(rank int, dims []int, dim, delta int) int {
		c := coords(rank, dims)
		c[dim] += delta
		return rankOf(c, dims)
	}
	for _, a := range Suite() {
		for rank := 0; rank < a.Ranks; rank++ {
			for d := range a.Dims {
				for _, delta := range []int{+1, -1} {
					if got, want := neighbor(rank, a.Dims, d, delta), ref(rank, a.Dims, d, delta); got != want {
						t.Fatalf("%s rank %d dim %d delta %+d: neighbor = %d, reference = %d",
							a.Name, rank, d, delta, got, want)
					}
				}
			}
		}
	}
}

// TestProgramsIntoReusesBufferWithoutAllocating mirrors the portals pooling
// tests for the program-set arena: contents are identical to a fresh build,
// and a warm buffer rebuilds a program set with zero allocations.
func TestProgramsIntoReusesBufferWithoutAllocating(t *testing.T) {
	a := Suite()[0]
	buf := new(mpisim.ProgramBuffer)
	fresh := a.Programs(6, 3*sim.Microsecond)
	pooled := a.ProgramsInto(buf, 6, 3*sim.Microsecond)
	if len(fresh) != len(pooled) {
		t.Fatalf("rank counts differ: %d vs %d", len(fresh), len(pooled))
	}
	for r := range fresh {
		if len(fresh[r]) != len(pooled[r]) {
			t.Fatalf("rank %d: op counts differ", r)
		}
		for i := range fresh[r] {
			if fresh[r][i] != pooled[r][i] {
				t.Fatalf("rank %d op %d: %+v vs %+v", r, i, fresh[r][i], pooled[r][i])
			}
		}
	}
	// Rebuilding with different parameters into the warm buffer allocates
	// nothing: the spine and every per-rank slice are reused.
	if allocs := testing.AllocsPerRun(10, func() {
		a.ProgramsInto(buf, 6, 5*sim.Microsecond)
	}); allocs > 0 {
		t.Fatalf("warm ProgramsInto = %.1f allocs, want 0", allocs)
	}
	// Fewer dimensions truncate each program; more ranks grow the set
	// once, and it is then again allocation-free.
	pop, clover := Suite()[1], Suite()[5]
	short := pop.ProgramsInto(buf, 6, sim.Microsecond)
	if len(short[0]) >= len(fresh[0]) {
		t.Fatal("shorter build did not truncate")
	}
	clover.ProgramsInto(buf, 9, sim.Microsecond)
	if allocs := testing.AllocsPerRun(10, func() {
		clover.ProgramsInto(buf, 9, sim.Microsecond)
	}); allocs > 0 {
		t.Fatalf("regrown ProgramsInto = %.1f allocs, want 0", allocs)
	}
}

// TestHostReplayBusesForgetDeadSpans pins that a node's DMA bus holds what
// is in flight, not what it has carried: after a host-matching replay of
// MILC-64 at Table 5c's scale-2 length (60 iterations), serially and on
// two logical processes, no bus holds more than the 8 spans at which its
// timeline forgets those that ended before its engine's clock. A timeline
// that keeps every span until 4,096 pile up leaves about 540 per bus.
func TestHostReplayBusesForgetDeadSpans(t *testing.T) {
	milc := Suite()[0]
	cfg := mpisim.DefaultConfig(mpisim.HostMatching)
	compute, err := milc.Calibrate(Replay(cfg), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	progs := milc.Programs(60, compute)
	for _, lp := range []int{1, 2} {
		cfg.LP = lp
		e, err := mpisim.New(cfg, progs)
		if err != nil {
			t.Fatal(err)
		}
		if e.C.LPCount() != lp {
			t.Fatalf("asked for %d logical processes, got %d", lp, e.C.LPCount())
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		held, most := 0, 0
		for _, n := range e.C.Nodes {
			held += n.Bus.Held()
			most = max(most, n.Bus.Held())
		}
		t.Logf("LP %d: buses hold %.1f spans on average, at most %d", lp, float64(held)/float64(len(e.C.Nodes)), most)
		if most > 8 {
			t.Errorf("LP %d: a bus holds %d spans, more than 8", lp, most)
		}
	}
}
