package handlers

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/portals"
)

func TestAccumulatePongReturnsProducts(t *testing.T) {
	c, nis := world(t, 2)
	mustPT(t, nis[1], 0)
	dst := cplxArray(2+0i, 0+1i)
	hostMem := make([]byte, 4096)
	copy(hostMem, dst)
	mustAppend(t, nis[1], 0, &portals.ME{
		Start:     hostMem,
		MatchBits: 2,
		HPUMem:    hpuMem(t, nis[1], AccumulateStateBytes),
		Handlers:  Accumulate(AccumulateConfig{Pong: true, ReplyPT: 1, ReplyBits: 20}),
	})
	// Client result ME.
	mustPT(t, nis[0], 1)
	result := make([]byte, 4096)
	mustAppend(t, nis[0], 1, &portals.ME{Start: result, MatchBits: 20})
	src := cplxArray(3+0i, 2+2i)
	nis[0].Put(0, portals.PutArgs{MD: nis[0].MDBind(src, nil, nil), Length: len(src), Target: 1, PTIndex: 0, MatchBits: 2})
	c.Eng.Run()
	want := []complex128{(2 + 0i) * 3, (0 + 1i) * (2 + 2i)}
	for i, w := range want {
		if got := readCplx(result, i); cmplxAbs(got-w) > 1e-12 {
			t.Fatalf("pong element %d = %v, want %v", i, got, w)
		}
		if got := readCplx(hostMem, i); cmplxAbs(got-w) > 1e-12 {
			t.Fatalf("host element %d = %v, want %v", i, got, w)
		}
	}
}

func TestRaidPrimaryReadServesFromHost(t *testing.T) {
	c, nis := world(t, 2)
	mustPT(t, nis[1], 0)
	blocks := make([]byte, 8192)
	for i := range blocks {
		blocks[i] = byte(i % 89)
	}
	mustAppend(t, nis[1], 0, &portals.ME{
		Start:      blocks,
		IgnoreBits: ^uint64(0),
		HPUMem:     hpuMem(t, nis[1], 8),
		Handlers:   RaidPrimaryRead(5),
	})
	mustPT(t, nis[0], 5)
	reply := make([]byte, 8192)
	ct := portals.NewCT(c.Eng)
	mustAppend(t, nis[0], 5, &portals.ME{Start: reply, IgnoreBits: ^uint64(0), ManageLocal: true, CT: ct})
	// Read request: 1 KiB from offset 2048, length in hdr_data.
	nis[0].Put(0, portals.PutArgs{
		Length: 0, Target: 1, PTIndex: 0, MatchBits: 99,
		RemoteOffset: 2048, HdrData: 1024,
	})
	c.Eng.Run()
	if ct.Get() == 0 {
		t.Fatal("no read reply")
	}
	if !bytes.Equal(reply[:1024], blocks[2048:3072]) {
		t.Fatal("read reply content wrong")
	}
}

func TestFilterLargeResultSplitsPackets(t *testing.T) {
	c, nis := world(t, 2)
	const recSize = 512
	const numRecs = 64 // 32 KiB of matches > MTU
	table := make([]byte, recSize*numRecs)
	for i := 0; i < numRecs; i++ {
		binary.LittleEndian.PutUint64(table[i*recSize:], 7) // all match
		table[i*recSize+8] = byte(i)
	}
	mustPT(t, nis[1], 0)
	mustAppend(t, nis[1], 0, &portals.ME{
		Start:      table,
		IgnoreBits: ^uint64(0),
		HPUMem:     hpuMem(t, nis[1], 8),
		Handlers:   Filter(1),
	})
	mustPT(t, nis[0], 1)
	replies := make([]byte, len(table)+4096)
	ct := portals.NewCT(c.Eng)
	replyME := &portals.ME{Start: replies, IgnoreBits: ^uint64(0), ManageLocal: true, CT: ct}
	mustAppend(t, nis[0], 1, replyME)
	nis[0].Put(0, portals.PutArgs{
		Length: 0, Target: 1, PTIndex: 0, MatchBits: 5,
		UserHdr: EncodeFilterRequest(FilterRequest{
			Key: 7, RecordSize: recSize, Offset: 0, Length: uint64(len(table)),
		}),
	})
	c.Eng.Run()
	got := replies[:replyME.LocalOffset()]
	if !bytes.Equal(got, table) {
		t.Fatalf("full-match filter returned %d bytes, want %d", len(got), len(table))
	}
	if ct.Get() < 2 {
		t.Fatalf("32 KiB of matches should arrive as multiple messages, got %d", ct.Get())
	}
}

func TestFilterNoMatchesEmptyReply(t *testing.T) {
	c, nis := world(t, 2)
	const recSize = 64
	table := make([]byte, recSize*32) // all keys zero
	mustPT(t, nis[1], 0)
	mustAppend(t, nis[1], 0, &portals.ME{
		Start:      table,
		IgnoreBits: ^uint64(0),
		HPUMem:     hpuMem(t, nis[1], 8),
		Handlers:   Filter(1),
	})
	mustPT(t, nis[0], 1)
	ct := portals.NewCT(c.Eng)
	eq := portals.NewEQ(c.Eng)
	mustAppend(t, nis[0], 1, &portals.ME{Start: make([]byte, 64), IgnoreBits: ^uint64(0), ManageLocal: true, CT: ct, EQ: eq})
	nis[0].Put(0, portals.PutArgs{
		Length: 0, Target: 1, PTIndex: 0, MatchBits: 5,
		UserHdr: EncodeFilterRequest(FilterRequest{
			Key: 1234, RecordSize: recSize, Offset: 0, Length: uint64(len(table)),
		}),
	})
	c.Eng.Run()
	if ct.Get() != 1 {
		t.Fatalf("want exactly one empty reply, got %d", ct.Get())
	}
	if evs := eq.Events(); len(evs) != 1 || evs[0].Length != 0 || evs[0].HdrData != 0 {
		t.Fatalf("empty reply event = %+v", evs)
	}
}

// TestBinomialTreeCoversPowersOfTwo verifies the invariant the paper's
// bcast handler relies on: for power-of-two process counts, following the
// "my % (half*2) == 0 -> send to my+half" rule from the root reaches every
// rank exactly once. (The published algorithm assumes power-of-two P; for
// other sizes a different tree is required.)
func TestBinomialTreeCoversPowersOfTwo(t *testing.T) {
	for P := 2; P <= 1024; P *= 2 {
		received := make([]int, P)
		queue := []int{0}
		for len(queue) > 0 {
			rank := queue[0]
			queue = queue[1:]
			for half := P / 2; half >= 1; half /= 2 {
				if rank%(half*2) == 0 && rank+half < P {
					received[rank+half]++
					queue = append(queue, rank+half)
				}
			}
		}
		for r := 1; r < P; r++ {
			if received[r] != 1 {
				t.Fatalf("P=%d: rank %d received %d times", P, r, received[r])
			}
		}
	}
}

func TestGraphTimingOnlyReplayDropsBatches(t *testing.T) {
	c, nis := world(t, 2)
	mustPT(t, nis[1], 0)
	dist := make([]byte, 1024)
	hm := hpuMem(t, nis[1], GraphStateBytes)
	mustAppend(t, nis[1], 0, &portals.ME{
		Start:      dist,
		IgnoreBits: ^uint64(0),
		HPUMem:     hm,
		Handlers:   GraphSSSP(128),
	})
	nis[0].Put(0, portals.PutArgs{Length: 10 * GraphUpdateBytes, Target: 1, PTIndex: 0})
	c.Eng.Run()
	// Timing-only replay still charges bus atomics.
	if nis[1].Node.Bus.Transactions == 0 {
		t.Fatal("timing-only graph replay issued no bus traffic")
	}
}

func TestComplexMulMatchesStdlib(t *testing.T) {
	vals := []complex128{1 + 2i, -3 + 0.5i, 0 - 1i, 2.5 + 2.5i}
	mults := []complex128{2 - 1i, 1 + 1i, -1 - 1i, 0 + 3i}
	dst := cplxArray(vals...)
	src := cplxArray(mults...)
	HostAccumulate(dst, src)
	for i := range vals {
		want := vals[i] * mults[i]
		if got := readCplx(dst, i); cmplxAbs(got-want) > 1e-12 {
			t.Fatalf("element %d = %v, want %v", i, got, want)
		}
	}
}

func TestHostXORSelfInverse(t *testing.T) {
	a := []byte{1, 2, 3, 255}
	b := []byte{9, 8, 7, 6}
	orig := append([]byte(nil), a...)
	HostXOR(a, b)
	HostXOR(a, b)
	if !bytes.Equal(a, orig) {
		t.Fatal("xor twice is not the identity")
	}
}

func TestKVUserHdrEncoding(t *testing.T) {
	b := EncodeKVUserHdr(KVUserHdr{Bucket: 0x12345678, KeyLen: 0x9abc})
	if binary.LittleEndian.Uint32(b) != 0x12345678 || binary.LittleEndian.Uint32(b[4:]) != 0x9abc {
		t.Fatal("user header encoding wrong")
	}
}

func TestFilterRequestRoundTrip(t *testing.T) {
	r := FilterRequest{Key: 7, RecordSize: 64, KeyOffset: 8, Offset: 1024, Length: 4096}
	got, ok := decodeFilterRequest(EncodeFilterRequest(r))
	if !ok || got != r {
		t.Fatalf("round trip = %+v", got)
	}
	if _, ok := decodeFilterRequest([]byte{1, 2}); ok {
		t.Fatal("short header accepted")
	}
}

var _ = math.Pi // keep math import for helpers
