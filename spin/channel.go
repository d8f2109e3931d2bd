package spin

import (
	"fmt"

	"repro/internal/portals"
)

// Channel is the connection-oriented sPIN session of the paper's
// introductory code sketch:
//
//	channel_id_t connect(peer, ..., &header_handler,
//	                     &payload_handler, &completion_handler);
//
// Connect installs the caller's handlers for messages arriving from one
// specific peer, so a process can run different handlers per connection.
// Underneath, a channel is a matched ME on a dedicated portal entry whose
// match bits encode the (sender, receiver) pair.
type Channel struct {
	cluster *Cluster
	local   int
	peer    int
	me      *ME
}

// ChannelConfig describes the receive side of a connection.
type ChannelConfig struct {
	// Handlers run for every message arriving from the peer.
	Handlers HandlerSet
	// HPUMemBytes of scratchpad shared by the handlers (0 = none).
	HPUMemBytes int
	// InitialState preloads the scratchpad (PtlHPUAllocMem semantics).
	InitialState []byte
	// RecvBuf is the ME host memory messages deposit into.
	RecvBuf []byte
	// HandlerHostMem is the optional auxiliary host region.
	HandlerHostMem []byte
	// EQ receives completion events (optional).
	EQ *EQ
}

// channelPT is the portal table entry reserved for connections.
const channelPT = 63

// channelBits encodes a directed (sender -> receiver) pair.
func channelBits(sender, receiver int) uint64 {
	return uint64(sender)<<24 | uint64(receiver)
}

// Connect establishes the local end of a connection with peer: the given
// handlers will run on this rank's NIC for every message the peer sends
// through the channel. Both ends call Connect independently, as in the
// paper's sketch.
func (c *Cluster) Connect(local, peer int, cfg ChannelConfig) (*Channel, error) {
	if local == peer {
		return nil, fmt.Errorf("spin: cannot connect rank %d to itself", local)
	}
	ni := c.NI(local)
	if _, err := ni.PTAlloc(channelPT, nil); err != nil {
		// Already allocated by an earlier connection on this rank.
		_ = err
	}
	var mem *HPUMem
	if cfg.HPUMemBytes > 0 {
		m, err := ni.RT.AllocHPUMem(cfg.HPUMemBytes)
		if err != nil {
			return nil, err
		}
		mem = m
	}
	me := &ME{
		Start:          cfg.RecvBuf,
		MatchBits:      channelBits(peer, local),
		EQ:             cfg.EQ,
		Handlers:       cfg.Handlers,
		HPUMem:         mem,
		InitialState:   cfg.InitialState,
		HandlerHostMem: cfg.HandlerHostMem,
	}
	me.MatchExactSource(peer)
	if err := ni.MEAppend(channelPT, me, portals.PriorityList); err != nil {
		return nil, err
	}
	return &Channel{cluster: c, local: local, peer: peer, me: me}, nil
}

// Send transmits data to the peer through the channel at time now and
// returns when the posting core is free.
func (ch *Channel) Send(now Time, data []byte) (Time, error) {
	ni := ch.cluster.NI(ch.local)
	return ni.Put(now, PutArgs{
		MD:        ni.MDBind(data, nil, nil),
		Length:    len(data),
		Target:    ch.peer,
		PTIndex:   channelPT,
		MatchBits: channelBits(ch.local, ch.peer),
	})
}

// SendWithHeader transmits data with a user-defined header (the first
// bytes the header handler parses, §3.2.1).
func (ch *Channel) SendWithHeader(now Time, userHdr, data []byte) (Time, error) {
	ni := ch.cluster.NI(ch.local)
	return ni.Put(now, PutArgs{
		MD:        ni.MDBind(data, nil, nil),
		Length:    len(data),
		Target:    ch.peer,
		PTIndex:   channelPT,
		MatchBits: channelBits(ch.local, ch.peer),
		UserHdr:   userHdr,
	})
}

// Close unlinks the channel's matching entry; subsequent messages from
// the peer fall through to other entries (or flow control).
func (ch *Channel) Close() { ch.me.Unlink() }

// Peer returns the remote rank.
func (ch *Channel) Peer() int { return ch.peer }
