// Network impairment: a deterministic, seeded fault model attached to a
// Cluster. Faults are decided per packet at packet-walk time from a
// splittable PRNG keyed by (seed, link, per-link packet sequence), so the
// impairment schedule is a pure function of (seed, topology, traffic): it
// does not depend on wall clock, map iteration order, goroutine scheduling,
// or how many times the cluster has been Reset. Re-runs are byte-identical
// and `-parallel N` sweeps match serial output exactly, per the determinism
// contract in ARCHITECTURE.md.
//
// With impairment disabled (the default) the transport consumes zero extra
// engine sequence numbers and schedules zero extra events, so unimpaired
// runs are byte-identical to a build without this file.
package netsim

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// LinkBlock takes one directed link (or a wildcard set of links) hard down
// for a time window. A packet arriving at the link while the block is active
// is dropped; Src or Dst of -1 matches any rank; Until of 0 means the link
// never heals.
type LinkBlock struct {
	Src, Dst    int
	From, Until sim.Time
}

// matches reports whether the block applies to a packet on src->dst at time
// now.
func (b *LinkBlock) matches(src, dst int, now sim.Time) bool {
	if b.Src >= 0 && b.Src != src {
		return false
	}
	if b.Dst >= 0 && b.Dst != dst {
		return false
	}
	return now >= b.From && (b.Until == 0 || now < b.Until)
}

// Impairment describes the fault model applied to every packet a cluster
// transports. The zero value (and nil) means a perfect network. All knobs
// compose: a packet is first checked against link blocks, then loss, then
// corruption, and finally delayed by latency + throttle + jitter.
type Impairment struct {
	// Seed keys the per-(link, packet) PRNG. Two runs with equal seeds,
	// topology, and traffic see identical faults.
	Seed uint64
	// Loss is the independent per-packet drop probability in [0, 1).
	Loss float64
	// LossEveryN, when > 0, drops every Nth packet on each link
	// (deterministic periodic loss, useful for exact-count tests).
	LossEveryN int
	// Corrupt is the per-packet probability of payload/header corruption.
	// Corrupt packets traverse the wire and the matching unit, then fail the
	// NIC's CRC check and are discarded before reaching the receiver — so
	// recovery layers observe them as losses that still consumed wire and
	// match bandwidth.
	Corrupt float64
	// ExtraLatency is added to every packet's wire time.
	ExtraLatency sim.Time
	// Jitter bounds a per-packet uniform random extra delay in [0, Jitter].
	Jitter sim.Time
	// ThrottleFemtoPerByte adds size-proportional wire delay (bandwidth
	// throttling), in femtoseconds per payload byte.
	ThrottleFemtoPerByte int64
	// Blocks lists hard link/port failures with scheduled fail/heal times.
	Blocks []LinkBlock
}

// Enabled reports whether any fault knob is set. It is nil-safe.
func (im *Impairment) Enabled() bool {
	if im == nil {
		return false
	}
	return im.Loss > 0 || im.LossEveryN > 0 || im.Corrupt > 0 ||
		im.ExtraLatency > 0 || im.Jitter > 0 || im.ThrottleFemtoPerByte > 0 ||
		len(im.Blocks) > 0
}

// Key returns a canonical string form of the impairment, suitable as a cache
// key: equal configurations produce equal keys, a nil or disabled impairment
// produces "". The format is the same spec ParseImpairment accepts.
func (im *Impairment) Key() string {
	if !im.Enabled() {
		return ""
	}
	var parts []string
	if im.Loss > 0 {
		parts = append(parts, "loss="+strconv.FormatFloat(im.Loss, 'g', -1, 64))
	}
	if im.LossEveryN > 0 {
		parts = append(parts, "lossn="+strconv.Itoa(im.LossEveryN))
	}
	if im.Corrupt > 0 {
		parts = append(parts, "corrupt="+strconv.FormatFloat(im.Corrupt, 'g', -1, 64))
	}
	if im.ExtraLatency > 0 {
		parts = append(parts, fmt.Sprintf("latency=%dps", int64(im.ExtraLatency)))
	}
	if im.Jitter > 0 {
		parts = append(parts, fmt.Sprintf("jitter=%dps", int64(im.Jitter)))
	}
	if im.ThrottleFemtoPerByte > 0 {
		parts = append(parts, fmt.Sprintf("throttle=%dfs", im.ThrottleFemtoPerByte))
	}
	parts = append(parts, "seed="+strconv.FormatUint(im.Seed, 10))
	blocks := make([]string, 0, len(im.Blocks))
	for _, b := range im.Blocks {
		blocks = append(blocks, blockSpec(b))
	}
	sort.Strings(blocks)
	parts = append(parts, blocks...)
	return strings.Join(parts, ",")
}

func (im *Impairment) String() string { return im.Key() }

func blockSpec(b LinkBlock) string {
	side := func(r int) string {
		if r < 0 {
			return "*"
		}
		return strconv.Itoa(r)
	}
	s := fmt.Sprintf("fail=%s:%s:%dps", side(b.Src), side(b.Dst), int64(b.From))
	if b.Until != 0 {
		s += fmt.Sprintf(":%dps", int64(b.Until))
	}
	return s
}

// ParseImpairment parses a comma-separated impairment spec, e.g.
//
//	loss=0.01,jitter=2us,seed=7
//	lossn=10,latency=500ns,throttle=5ps,fail=0:1:0,fail=*:3:1us:2us
//
// Recognized keys: loss (probability), lossn (drop every Nth packet),
// corrupt (probability), latency, jitter (durations), throttle (extra wire
// time per byte, as a duration), seed (uint64), and fail=SRC:DST:FROM[:UNTIL]
// (SRC/DST are ranks or '*', FROM/UNTIL durations; UNTIL omitted or 0 means
// the link never heals). Durations accept fs/ps/ns/us/ms/s suffixes.
func ParseImpairment(spec string) (*Impairment, error) {
	im := &Impairment{}
	if strings.TrimSpace(spec) == "" {
		return im, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("netsim: impairment field %q: want key=value", field)
		}
		var err error
		switch key {
		case "loss":
			im.Loss, err = parseProb(val)
		case "lossn":
			im.LossEveryN, err = strconv.Atoi(val)
			if err == nil && im.LossEveryN < 0 {
				err = fmt.Errorf("must be >= 0")
			}
		case "corrupt":
			im.Corrupt, err = parseProb(val)
		case "latency":
			im.ExtraLatency, err = parseDuration(val)
		case "jitter":
			im.Jitter, err = parseDuration(val)
		case "throttle":
			// Per-byte wire delay; parsed at femtosecond precision because
			// realistic throttles are a few fs/B.
			im.ThrottleFemtoPerByte, err = parseFemto(val)
		case "seed":
			im.Seed, err = strconv.ParseUint(val, 10, 64)
		case "fail":
			var b LinkBlock
			b, err = parseBlock(val)
			if err == nil {
				im.Blocks = append(im.Blocks, b)
			}
		default:
			return nil, fmt.Errorf("netsim: unknown impairment key %q (want loss, lossn, corrupt, latency, jitter, throttle, seed, fail)", key)
		}
		if err != nil {
			return nil, fmt.Errorf("netsim: impairment %s=%s: %v", key, val, err)
		}
	}
	return im, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	// NaN fails both ordered comparisons, so test it explicitly — a NaN
	// probability would otherwise reach lossThreshold's float-to-uint
	// conversion, whose result is undefined.
	if math.IsNaN(p) || p < 0 || p >= 1 {
		return 0, fmt.Errorf("probability %v outside [0, 1)", p)
	}
	return p, nil
}

// parseDuration parses a duration with an fs/ps/ns/us/ms/s suffix into
// picoseconds (femtoseconds round down).
func parseDuration(s string) (sim.Time, error) {
	fs, err := parseFemto(s)
	if err != nil {
		return 0, err
	}
	return sim.Time(fs / 1000), nil
}

// parseFemto parses a duration with suffix into femtoseconds, the unit of
// the per-byte throttle.
func parseFemto(s string) (int64, error) {
	if s == "0" { // zero needs no unit
		return 0, nil
	}
	units := []struct {
		suffix string
		femto  float64
	}{
		{"fs", 1}, {"ps", 1e3}, {"ns", 1e6}, {"us", 1e9}, {"ms", 1e12}, {"s", 1e15},
	}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			num := strings.TrimSuffix(s, u.suffix)
			// Integer magnitudes take an exact int64 path: Key() prints
			// durations as integer ps/fs, and values above 2^53 would lose
			// precision through float64 — breaking Key's re-parse fixed point.
			if i, ierr := strconv.ParseInt(num, 10, 64); ierr == nil {
				if i < 0 {
					return 0, fmt.Errorf("negative duration %q", s)
				}
				femto := int64(u.femto)
				if i > math.MaxInt64/femto {
					return 0, fmt.Errorf("duration %q overflows", s)
				}
				return i * femto, nil
			}
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			if math.IsNaN(v) || v < 0 {
				return 0, fmt.Errorf("negative duration %q", s)
			}
			// float64(MaxInt64) is exactly 2^63, so >= catches every float
			// whose int64 conversion would be out of range (including +Inf) —
			// an unchecked conversion is undefined and came out negative.
			if f := v * u.femto; f < float64(math.MaxInt64) {
				return int64(f), nil
			}
			return 0, fmt.Errorf("duration %q overflows", s)
		}
	}
	return 0, fmt.Errorf("duration %q needs a unit suffix (fs/ps/ns/us/ms/s)", s)
}

func parseBlock(s string) (LinkBlock, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 && len(parts) != 4 {
		return LinkBlock{}, fmt.Errorf("want SRC:DST:FROM[:UNTIL], got %q", s)
	}
	rank := func(p string) (int, error) {
		if p == "*" {
			return -1, nil
		}
		r, err := strconv.Atoi(p)
		if err == nil && r < 0 {
			err = fmt.Errorf("rank %d negative (use * for wildcard)", r)
		}
		return r, err
	}
	var b LinkBlock
	var err error
	if b.Src, err = rank(parts[0]); err != nil {
		return LinkBlock{}, err
	}
	if b.Dst, err = rank(parts[1]); err != nil {
		return LinkBlock{}, err
	}
	if b.From, err = parseDuration(parts[2]); err != nil {
		return LinkBlock{}, err
	}
	if len(parts) == 4 {
		if b.Until, err = parseDuration(parts[3]); err != nil {
			return LinkBlock{}, err
		}
	}
	return b, nil
}

// FaultStats counts injected faults and the recovery work they triggered.
// All counters are simulation-deterministic: equal (seed, topology, traffic)
// runs produce equal counts.
type FaultStats struct {
	// Lost counts packets dropped by random or every-Nth loss.
	Lost uint64
	// Blocked counts packets dropped by an active link block.
	Blocked uint64
	// Corrupted counts packets discarded by the NIC CRC check.
	Corrupted uint64
	// Delayed counts packets whose arrival was shifted by latency, jitter,
	// or throttling.
	Delayed uint64
	// Retransmits counts recovery resends (portals reliable puts, mpisim
	// rendezvous-control retries).
	Retransmits uint64
	// RetransFails counts reliable operations abandoned after exhausting
	// their retry budget.
	RetransFails uint64
}

// Add accumulates other into s.
func (s *FaultStats) Add(other FaultStats) {
	s.Lost += other.Lost
	s.Blocked += other.Blocked
	s.Corrupted += other.Corrupted
	s.Delayed += other.Delayed
	s.Retransmits += other.Retransmits
	s.RetransFails += other.RetransFails
}

// Sub returns s minus earlier, counter by counter. Counters are monotone
// within one environment's lifetime, so the difference of two snapshots
// taken around a unit of work attributes exactly that work's faults — the
// serve layer uses this to charge per-point fault counts to jobs sharing a
// long-lived worker pool.
func (s FaultStats) Sub(earlier FaultStats) FaultStats {
	return FaultStats{
		Lost:         s.Lost - earlier.Lost,
		Blocked:      s.Blocked - earlier.Blocked,
		Corrupted:    s.Corrupted - earlier.Corrupted,
		Delayed:      s.Delayed - earlier.Delayed,
		Retransmits:  s.Retransmits - earlier.Retransmits,
		RetransFails: s.RetransFails - earlier.RetransFails,
	}
}

// Any reports whether any counter is nonzero.
func (s *FaultStats) Any() bool {
	return s.Lost != 0 || s.Blocked != 0 || s.Corrupted != 0 ||
		s.Delayed != 0 || s.Retransmits != 0 || s.RetransFails != 0
}

// mix64 is the splitmix64 finalizer: a bijective avalanche mix whose output
// on distinct inputs is statistically indistinguishable from independent
// uniform draws. It is the whole PRNG — no state beyond the key — which is
// what makes per-(link, packet) draws order-independent.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// linkKey packs a directed link into one map key.
func linkKey(src, dst int) uint64 {
	return uint64(uint32(src))<<32 | uint64(uint32(dst))
}

// rand returns the uniform draw for (seed, link, packet-seq, salt). Distinct
// salts give independent streams (loss vs corrupt vs jitter) for the same
// packet.
func (im *Impairment) rand(link, pktSeq, salt uint64) uint64 {
	return mix64(mix64(im.Seed^mix64(link)) ^ pktSeq + salt*0x632be59bd9b4e019)
}

// lossThreshold converts probability p into a uint64 comparison threshold.
func lossThreshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.MaxUint64
	}
	return uint64(p * float64(math.MaxUint64))
}

// Salt streams for the per-packet PRNG.
const (
	saltLoss = iota + 1
	saltCorrupt
	saltJitter
)

// SetImpairment installs (or, with nil or a disabled impairment, removes)
// the cluster's fault model and restarts the per-link packet counters. Call
// it before traffic starts; changing the model mid-run would shift the
// packet-seq keys of in-flight messages. The impairment itself survives
// Reset/ResetCore — only the counters restart — so a reset cluster replays
// the exact same fault schedule.
func (c *Cluster) SetImpairment(im *Impairment) {
	if !im.Enabled() {
		im = nil
	}
	c.setImp(im)
	// An LP root cascades into every shard: faults are decided on the shard
	// transporting the packet, and each shard counts its own links (a link's
	// traffic always originates at the source's shard, so the per-shard
	// counters reproduce the serial sequence exactly).
	for _, s := range c.shards {
		s.setImp(im)
	}
}

func (c *Cluster) setImp(im *Impairment) {
	c.imp = im
	if im != nil && c.linkSeq == nil {
		c.linkSeq = make(map[uint64]uint64)
	}
	clear(c.linkSeq)
}

// Impairment returns the installed fault model (nil when the network is
// perfect).
func (c *Cluster) Impairment() *Impairment { return c.imp }

// Impaired reports whether a fault model is installed.
func (c *Cluster) Impaired() bool { return c.imp != nil }

// impairPacket decides one packet's fate at its nominal arrival instant now:
// it returns the (possibly delayed) delivery time and whether the packet is
// dropped, and marks corruption on the packet itself. Faults are drawn from
// the walk's reserved per-link sequence numbers, so the verdict depends only
// on (seed, link, packet index within the link's traffic).
func (c *Cluster) impairPacket(w *msgWalk, pkt *Packet, now sim.Time) (at sim.Time, drop bool) {
	im := c.imp
	msg := w.msg
	link := linkKey(msg.Src, msg.Dst)
	seq := w.impSeq + uint64(pkt.Index)

	for i := range im.Blocks {
		if im.Blocks[i].matches(msg.Src, msg.Dst, now) {
			c.Faults.Blocked++
			if c.Rec.Enabled() {
				c.Rec.Recordf(msg.Dst, "FAULT", now, now, "blocked %s #%d from %d", msg.Type, pkt.Index, msg.Src)
			}
			return now, true
		}
	}
	if im.LossEveryN > 0 && (seq+1)%uint64(im.LossEveryN) == 0 {
		c.Faults.Lost++
		if c.Rec.Enabled() {
			c.Rec.Recordf(msg.Dst, "FAULT", now, now, "lost %s #%d from %d", msg.Type, pkt.Index, msg.Src)
		}
		return now, true
	}
	if im.Loss > 0 && im.rand(link, seq, saltLoss) < lossThreshold(im.Loss) {
		c.Faults.Lost++
		if c.Rec.Enabled() {
			c.Rec.Recordf(msg.Dst, "FAULT", now, now, "lost %s #%d from %d", msg.Type, pkt.Index, msg.Src)
		}
		return now, true
	}
	if im.Corrupt > 0 && im.rand(link, seq, saltCorrupt) < lossThreshold(im.Corrupt) {
		pkt.corrupt = true
		c.Faults.Corrupted++
		if c.Rec.Enabled() {
			c.Rec.Recordf(msg.Dst, "FAULT", now, now, "corrupt %s #%d from %d", msg.Type, pkt.Index, msg.Src)
		}
	}

	d := im.ExtraLatency
	if im.ThrottleFemtoPerByte > 0 {
		d += sim.Time(int64(pkt.Size) * im.ThrottleFemtoPerByte / 1000)
	}
	if im.Jitter > 0 {
		d += sim.Time(im.rand(link, seq, saltJitter) % uint64(im.Jitter+1))
	}
	at = now + d
	// FIFO clamp: a message's packets must arrive in order (receivers demand
	// header-first), so jitter never reorders within a message.
	if at < w.lastAt {
		at = w.lastAt
	}
	w.lastAt = at
	if at > now {
		c.Faults.Delayed++
	}
	return at, false
}

// packetAccounted marks one of an impaired message's packets as terminally
// handled (delivered, dropped, or CRC-discarded). When the last packet is
// accounted for, a pooled message is either recycled or — if any fault
// removed a packet after a receiver saw part of the message — quarantined
// until the next ResetCore. A pending Delivered event does not hold the
// message (it carries DeliveredArg), so it never forces quarantine.
// Quarantine is what keeps loss safe for pooled messages: layers above key
// per-message state (recvStates, channels, mpisim inflight) by *Message
// and normally empty it during the final dispatch; when loss prevents that
// dispatch, reusing the pointer would alias the stale entry.
func (c *Cluster) packetAccounted(m *Message) {
	if m.track <= 0 {
		return
	}
	m.track--
	if m.track > 0 || !m.pooled {
		return
	}
	if m.faulted && m.touched {
		c.quarantine = append(c.quarantine, m)
		return
	}
	c.recycleMessage(m)
}

// runDelayedReceive is the ScheduleCall dispatcher for impairment-delayed
// packets: it hands the packet to its destination NIC at the shifted time.
func runDelayedReceive(a any) {
	pkt := a.(*Packet)
	pkt.node.receive(pkt)
}
