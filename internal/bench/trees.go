package bench

import (
	"fmt"

	"repro/internal/handlers"
	"repro/internal/netsim"
	"repro/internal/portals"
	"repro/internal/sim"
)

// treeBroadcastTime measures a streaming sPIN broadcast over an arbitrary
// forwarding tree — the generality the paper claims over fixed-tree
// offload engines (§4.4.3). rootTargets are the ranks the root's host
// seeds directly.
func treeBroadcastTime(e *Env, p netsim.Params, tree handlers.Tree, nprocs, size int, rootTargets []int) (sim.Time, error) {
	p.FlowDeadline = 100 * sim.Millisecond
	c, nis, err := e.cluster(nprocs, p, e.impair)
	if err != nil {
		return 0, err
	}
	var last sim.Time
	remaining := nprocs - 1
	for r := 0; r < nprocs; r++ {
		if _, err := nis[r].PTAlloc(0, nil); err != nil {
			return 0, err
		}
		if r == 0 {
			continue
		}
		mem, err := nis[r].RT.AllocHPUMem(handlers.BcastStateBytes)
		if err != nil {
			return 0, err
		}
		eq := portals.NewEQ(c.Eng)
		got := 0
		eq.OnEvent(func(ev portals.Event) {
			got += ev.Length
			if ev.Length == 0 {
				got += size
			}
			if got >= size {
				if ev.At > last {
					last = ev.At
				}
				remaining--
			}
		})
		if err := nis[r].MEAppend(0, &portals.ME{
			Length:    size,
			MatchBits: 7,
			EQ:        eq,
			HPUMem:    mem,
			Handlers: handlers.BcastTree(handlers.BcastConfig{
				MyRank: r, NProcs: nprocs, PT: 0, Bits: 7,
				Streaming: true, MaxSize: 1 << 30,
			}, tree),
		}, portals.PriorityList); err != nil {
			return 0, err
		}
	}
	var t sim.Time
	for _, target := range rootTargets {
		var err error
		t, err = nis[0].Put(t, portals.PutArgs{
			Length: size, Target: target, PTIndex: 0, MatchBits: 7,
		})
		if err != nil {
			return 0, err
		}
	}
	c.Eng.Run()
	if remaining > 0 {
		return 0, fmt.Errorf("bench: tree broadcast P=%d size=%d: %d ranks incomplete", nprocs, size, remaining)
	}
	return last, nil
}

// treesSweep lays out the collective-algorithm ablation the paper leaves
// as future work (§4.4.3): binomial (latency-optimal, log depth) versus
// pipeline (bandwidth-optimal chain) broadcast on sPIN. Small messages
// favor the binomial tree; large ones the pipeline.
func treesSweep(int) *Sweep {
	s := NewSweep(&Table{
		ID:     "trees",
		Title:  "sPIN broadcast algorithms, 16 ranks, integrated NIC (us)",
		Header: []string{"bytes", "binomial", "pipeline", "winner"},
		Notes:  "the flexible-tree generality of §4.4.3: binomial wins small, pipeline wins large",
	})
	p := netsim.Integrated()
	const P = 16
	for _, size := range []int{8, 4096, 65536, 1 << 20} {
		s.Row(fmt.Sprint(size), func(e *Env) ([]string, error) {
			bin, err := treeBroadcastTime(e, p, handlers.BinomialTree, P, size, handlers.BinomialTree(0, P))
			if err != nil {
				return nil, err
			}
			pipe, err := treeBroadcastTime(e, p, handlers.PipelineTree, P, size, []int{1})
			if err != nil {
				return nil, err
			}
			winner := "binomial"
			if pipe < bin {
				winner = "pipeline"
			}
			return []string{fmt.Sprintf("%d", size), us(int64(bin)), us(int64(pipe)), winner}, nil
		})
	}
	return s
}
