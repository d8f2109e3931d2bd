// Package apps generates synthetic communication workloads standing in for
// the paper's traced applications (Table 5c): MILC (4-D lattice QCD), POP
// (2-D ocean model), coMD (3-D molecular dynamics), and Cloverleaf (2-D
// hydrodynamics). Real traces are proprietary/unavailable, so each
// generator reproduces the property Table 5c depends on: the process
// count, the Cartesian halo-exchange pattern, the message-size mix, and a
// compute:communication ratio calibrated to the paper's reported
// point-to-point fractions.
package apps

import (
	"fmt"

	"repro/internal/mpisim"
	"repro/internal/sim"
)

// App describes one synthetic application.
type App struct {
	Name  string
	Ranks int
	// Dims is the Cartesian decomposition; len(Dims) is the stencil
	// dimensionality; the product must equal Ranks.
	Dims []int
	// HaloBytes is the face-exchange message size per dimension.
	HaloBytes []int
	// TargetP2PFraction is the paper's reported share of runtime spent
	// in point-to-point communication; compute time is calibrated to it.
	TargetP2PFraction float64
	// PaperSpeedup is the paper's reported full-app improvement from
	// offloaded matching (for the comparison column).
	PaperSpeedup float64
	// PaperMessages is the message count of the paper's full-length
	// trace (ours are shorter; see Iterations).
	PaperMessages uint64
}

// Suite returns the Table 5c applications.
func Suite() []App {
	return []App{
		{
			Name: "MILC", Ranks: 64, Dims: []int{2, 2, 4, 4},
			HaloBytes:         []int{16384, 16384, 16384, 16384},
			TargetP2PFraction: 0.055, PaperSpeedup: 0.036, PaperMessages: 5743212,
		},
		{
			Name: "POP", Ranks: 64, Dims: []int{8, 8},
			HaloBytes:         []int{2048, 2048},
			TargetP2PFraction: 0.031, PaperSpeedup: 0.007, PaperMessages: 772063149,
		},
		{
			Name: "coMD", Ranks: 72, Dims: []int{3, 4, 6},
			HaloBytes:         []int{12288, 12288, 12288},
			TargetP2PFraction: 0.061, PaperSpeedup: 0.037, PaperMessages: 5337575,
		},
		{
			Name: "coMD", Ranks: 360, Dims: []int{5, 8, 9},
			HaloBytes:         []int{12288, 12288, 12288},
			TargetP2PFraction: 0.065, PaperSpeedup: 0.038, PaperMessages: 28100000,
		},
		{
			Name: "Cloverleaf", Ranks: 72, Dims: []int{8, 9},
			HaloBytes:         []int{32768, 32768},
			TargetP2PFraction: 0.052, PaperSpeedup: 0.028, PaperMessages: 2677705,
		},
		{
			Name: "Cloverleaf", Ranks: 360, Dims: []int{18, 20},
			HaloBytes:         []int{32768, 32768},
			TargetP2PFraction: 0.056, PaperSpeedup: 0.024, PaperMessages: 15300000,
		},
	}
}

// coords converts a rank to Cartesian coordinates.
func coords(rank int, dims []int) []int {
	c := make([]int, len(dims))
	for i := len(dims) - 1; i >= 0; i-- {
		c[i] = rank % dims[i]
		rank /= dims[i]
	}
	return c
}

// rankOf converts coordinates to a rank (periodic boundaries).
func rankOf(c []int, dims []int) int {
	r := 0
	for i, d := range dims {
		x := ((c[i] % d) + d) % d
		r = r*d + x
	}
	return r
}

// neighbor returns the rank offset by delta in dimension dim (periodic
// boundaries). Only the target dimension's coordinate is decomposed, so the
// hot program-building loop allocates no coordinate vectors — neighbor runs
// twice per dimension per iteration per rank, which made the coords-based
// form the dominant allocation of an entire Table 5c regeneration.
func neighbor(rank int, dims []int, dim, delta int) int {
	stride := 1
	for i := len(dims) - 1; i > dim; i-- {
		stride *= dims[i]
	}
	d := dims[dim]
	c := (rank / stride) % d
	shifted := ((c+delta)%d + d) % d
	return rank + (shifted-c)*stride
}

// Programs builds per-rank programs: iterations of halo exchange (post
// receives, send faces, compute, wait) — the standard overlap structure.
// computePerIter sets the per-iteration compute phase. Each rank's program
// holds one iteration and an mpisim.OpRepeat that replays it iterations
// times, so its length does not grow with iterations.
func (a App) Programs(iterations int, computePerIter sim.Time) [][]mpisim.Op {
	return a.ProgramsInto(nil, iterations, computePerIter)
}

// ProgramsInto is Programs writing into a caller-owned grow-only buffer:
// the op contents are identical to a fresh Programs build, but the [][]Op
// spine and every per-rank slice are reused, so a warm buffer rebuilds a
// program set without allocating (the Table 5c sweep rebuilds one per
// calibration probe and per replay). A nil buffer builds fresh storage. The
// buffer's ownership rules (no rebuild while an engine bound to the
// previous contents may still run) are documented on
// mpisim.ProgramBuffer. Fewer than one iteration builds empty programs.
func (a App) ProgramsInto(buf *mpisim.ProgramBuffer, iterations int, computePerIter sim.Time) [][]mpisim.Op {
	if buf == nil {
		buf = new(mpisim.ProgramBuffer)
	}
	progs := buf.Ranks(a.Ranks)
	if iterations < 1 {
		return progs
	}
	for r := 0; r < a.Ranks; r++ {
		ops := progs[r]
		// Tags must uniquely pair each send with its receive: iteration,
		// dimension, direction. Iteration it's tags are it<<16 | d<<2 |
		// dir, and d<<2 | dir < 1<<16, so the repeat's stride of 1<<16
		// per pass adds the iteration field.
		for d := range a.Dims {
			if a.Dims[d] < 2 {
				continue
			}
			up := neighbor(r, a.Dims, d, +1)
			down := neighbor(r, a.Dims, d, -1)
			tagUp := uint64(d)<<2 | 1
			tagDown := uint64(d)<<2 | 2
			ops = append(ops,
				mpisim.Op{Kind: mpisim.OpIrecv, Peer: down, Tag: tagUp, Size: a.HaloBytes[d]},
				mpisim.Op{Kind: mpisim.OpIrecv, Peer: up, Tag: tagDown, Size: a.HaloBytes[d]},
				mpisim.Op{Kind: mpisim.OpIsend, Peer: up, Tag: tagUp, Size: a.HaloBytes[d]},
				mpisim.Op{Kind: mpisim.OpIsend, Peer: down, Tag: tagDown, Size: a.HaloBytes[d]},
			)
		}
		progs[r] = append(ops,
			mpisim.Op{Kind: mpisim.OpCompute, Dur: computePerIter},
			mpisim.Op{Kind: mpisim.OpWaitAll},
			mpisim.Op{Kind: mpisim.OpRepeat, Size: iterations, Tag: 1 << 16},
		)
	}
	return progs
}

// MessagesPerIteration returns sends per iteration across all ranks.
func (a App) MessagesPerIteration() uint64 {
	n := 0
	for _, d := range a.Dims {
		if d >= 2 {
			n += 2
		}
	}
	return uint64(n * a.Ranks)
}

// Runner executes one program set and returns the replay result. bench
// supplies either a fresh-engine runner (Replay) or one that reuses a
// cached engine across calls via mpisim.Engine.Reset.
type Runner func(progs [][]mpisim.Op) (mpisim.Result, error)

// Replay returns a Runner that builds a fresh engine per program set — the
// no-reuse baseline.
func Replay(cfg mpisim.Config) Runner {
	return func(progs [][]mpisim.Op) (mpisim.Result, error) {
		e, err := mpisim.New(cfg, progs)
		if err != nil {
			return mpisim.Result{}, err
		}
		return e.Run()
	}
}

// Calibrate picks the per-iteration compute time so the baseline's
// point-to-point fraction matches the paper's: it probe-runs a few
// iterations without compute to measure the communication cost per
// iteration, then solves comm/(comm+compute) = target. run must replay
// with the baseline (HostMatching) configuration. The probe programs are
// built into buf (nil builds fresh); the caller may reuse the same buffer
// for its subsequent measured builds — the probe set is consumed before
// Calibrate returns.
func (a App) Calibrate(run Runner, probeIters int, buf *mpisim.ProgramBuffer) (sim.Time, error) {
	res, err := run(a.ProgramsInto(buf, probeIters, 0))
	if err != nil {
		return 0, err
	}
	commPerIter := float64(res.Runtime) / float64(probeIters)
	f := a.TargetP2PFraction
	compute := commPerIter * (1 - f) / f
	if compute < 0 {
		return 0, fmt.Errorf("apps: bad target fraction %f", f)
	}
	return sim.Time(compute), nil
}
