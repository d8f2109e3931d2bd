package raidsim

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/spctrace"
)

func TestWriteCompletesBothProtocols(t *testing.T) {
	for _, spin := range []bool{false, true} {
		sys, err := New(netsim.Integrated(), spin)
		if err != nil {
			t.Fatal(err)
		}
		done, err := sys.Write(0, 16384)
		if err != nil {
			t.Fatalf("spin=%v: %v", spin, err)
		}
		if done <= 0 {
			t.Fatalf("spin=%v: done = %v", spin, done)
		}
		if sys.Writes != 1 {
			t.Fatalf("write counter = %d", sys.Writes)
		}
	}
}

func TestReadCompletesBothProtocols(t *testing.T) {
	for _, spin := range []bool{false, true} {
		sys, err := New(netsim.Discrete(), spin)
		if err != nil {
			t.Fatal(err)
		}
		done, err := sys.Read(0, 12345, 32768)
		if err != nil {
			t.Fatalf("spin=%v: %v", spin, err)
		}
		// A read must cost at least a network round trip.
		min := 2 * sys.C.P.Topo.Latency(Client, DataBase)
		if done < min {
			t.Fatalf("spin=%v: read done at %v, faster than RTT %v", spin, done, min)
		}
	}
}

func TestSequentialOpsAdvanceTime(t *testing.T) {
	sys, err := New(netsim.Integrated(), true)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := sys.Write(0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := sys.Write(t1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if t2 <= t1 {
		t.Fatalf("second op at %v not after first at %v", t2, t1)
	}
}

func TestSpinFasterOnWriteHeavyTrace(t *testing.T) {
	recs := spctrace.GenFinancial(60, 1)
	base, err := New(netsim.Integrated(), false)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := base.Replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	spin, err := New(netsim.Integrated(), true)
	if err != nil {
		t.Fatal(err)
	}
	st, err := spin.Replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	if st >= bt {
		t.Fatalf("sPIN %v not faster than RDMA %v on OLTP trace", st, bt)
	}
	improv := 1 - float64(st)/float64(bt)
	// §5.3: improvements between 2.8% and 43.7%.
	if improv < 0.02 || improv > 0.6 {
		t.Fatalf("improvement %.1f%% outside the paper's band", 100*improv)
	}
}

func TestReadsAndWritesMixReplay(t *testing.T) {
	recs := spctrace.GenWebSearch(40, 2)
	sys, err := New(netsim.Discrete(), true)
	if err != nil {
		t.Fatal(err)
	}
	total, err := sys.Replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatal("replay did not advance time")
	}
	if sys.Reads == 0 {
		t.Fatal("web-search trace produced no reads")
	}
}

// TestResetBitIdenticalToFresh is the system-level golden check behind the
// per-trace replay reuse: a system that already replayed one trace and was
// Reset must replay a second trace with the same total time, operation
// counts, and processed-event count as a freshly built system — for both
// protocols on both NIC types.
func TestResetBitIdenticalToFresh(t *testing.T) {
	recsA := spctrace.GenFinancial(40, 1)
	recsB := spctrace.GenWebSearch(40, 2)
	for _, spin := range []bool{false, true} {
		for _, p := range []netsim.Params{netsim.Integrated(), netsim.Discrete()} {
			fresh, err := New(p, spin)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Replay(recsB)
			if err != nil {
				t.Fatal(err)
			}

			sys, err := New(p, spin)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Replay(recsA); err != nil {
				t.Fatal(err)
			}
			sys.Reset()
			got, err := sys.Replay(recsB)
			if err != nil {
				t.Fatalf("spin=%v: reset replay: %v", spin, err)
			}
			if got != want {
				t.Fatalf("spin=%v: reset system diverged: %v vs fresh %v", spin, got, want)
			}
			if sys.Writes != fresh.Writes || sys.Reads != fresh.Reads || sys.BytesMoved != fresh.BytesMoved {
				t.Fatalf("spin=%v: stats diverged: %d/%d/%d vs %d/%d/%d", spin,
					sys.Writes, sys.Reads, sys.BytesMoved, fresh.Writes, fresh.Reads, fresh.BytesMoved)
			}
			if sys.C.Eng.Processed() != fresh.C.Eng.Processed() {
				t.Fatalf("spin=%v: event counts diverged: %d vs %d", spin,
					sys.C.Eng.Processed(), fresh.C.Eng.Processed())
			}
		}
	}
}

func TestChunksPartition(t *testing.T) {
	var s System
	for _, size := range []int{1, 3, 4, 5, 4096, 4097, 1 << 18} {
		parts := s.chunks(size)
		sum := 0
		for _, n := range parts {
			if n <= 0 {
				t.Fatalf("size %d: empty chunk", size)
			}
			sum += n
		}
		if sum != size {
			t.Fatalf("size %d: chunks sum to %d", size, sum)
		}
		if len(parts) > DataNodes {
			t.Fatalf("size %d: %d chunks", size, len(parts))
		}
	}
}

func TestOversizeRejected(t *testing.T) {
	sys, err := New(netsim.Integrated(), true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Write(0, maxBlock*DataNodes+1); err == nil {
		t.Fatal("oversize write accepted")
	}
	if _, err := sys.Read(0, 0, maxBlock+1); err == nil {
		t.Fatal("oversize read accepted")
	}
	_ = sim.Time(0)
}
