// Package gossipnode implements a real networked gossip node speaking the
// wire protocol of internal/wire over TCP. It runs the paper's general
// gossiping algorithm as an actual service: on the first receipt of a
// multicast it draws a fanout from the configured distribution, picks that
// many random peers from its membership view, and forwards.
//
// The node is deliberately small — enough for cmd/gossipd and the
// integration tests to exercise the library end to end on loopback — but
// complete: join protocol, bounded views, deduplication with bounded
// memory, graceful shutdown, and liveness pings.
package gossipnode

import (
	"fmt"
	"net"
	"sync"
	"time"

	"gossipkit/internal/dist"
	"gossipkit/internal/wire"
	"gossipkit/internal/xrand"
)

// Config parameterizes a node.
type Config struct {
	// ListenAddr is the TCP address to listen on ("127.0.0.1:0" picks a
	// free port).
	ListenAddr string
	// Fanout is the gossip fanout distribution P; nil defaults to Po(4).
	Fanout dist.Distribution
	// Seed drives the node's randomness.
	Seed uint64
	// MaxView bounds the membership view size (0 = 64).
	MaxView int
	// MaxSeen bounds the deduplication memory (0 = 4096 message ids).
	MaxSeen int
	// Deliver, if non-nil, is invoked once per multicast (including the
	// node's own publications) from the connection goroutine.
	Deliver func(wire.Gossip)
	// DialTimeout bounds outbound connection attempts (0 = 2s).
	DialTimeout time.Duration
}

// Node is a running gossip node.
type Node struct {
	cfg      Config
	ln       net.Listener
	mu       sync.Mutex
	rng      *xrand.RNG
	peers    []string
	peerSet  map[string]bool
	seen     map[uint64]bool
	seenFIFO []uint64
	closed   bool
	wg       sync.WaitGroup

	// Stats counters (guarded by mu).
	delivered int
	forwarded int
	duplicate int
}

// Start launches a node listening on cfg.ListenAddr.
func Start(cfg Config) (*Node, error) {
	if cfg.Fanout == nil {
		cfg.Fanout = dist.NewPoisson(4)
	}
	if cfg.MaxView <= 0 {
		cfg.MaxView = 64
	}
	if cfg.MaxSeen <= 0 {
		cfg.MaxSeen = 4096
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("gossipnode: listen: %w", err)
	}
	n := &Node{
		cfg:     cfg,
		ln:      ln,
		rng:     xrand.New(cfg.Seed),
		peerSet: map[string]bool{},
		seen:    map[uint64]bool{},
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Peers returns a copy of the current membership view.
func (n *Node) Peers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.peers...)
}

// Stats returns (delivered, forwarded messages, duplicates discarded).
func (n *Node) Stats() (delivered, forwarded, duplicates int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.delivered, n.forwarded, n.duplicate
}

// AddPeer inserts addr into the view (deduplicated, bounded by random
// eviction — keeping the view a uniform sample, the property the paper's
// model needs).
func (n *Node) AddPeer(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.addPeerLocked(addr)
}

func (n *Node) addPeerLocked(addr string) {
	if addr == "" || addr == n.Addr() || n.peerSet[addr] {
		return
	}
	if len(n.peers) >= n.cfg.MaxView {
		// Evict a uniformly random entry.
		i := n.rng.Intn(len(n.peers))
		delete(n.peerSet, n.peers[i])
		n.peers[i] = n.peers[len(n.peers)-1]
		n.peers = n.peers[:len(n.peers)-1]
	}
	n.peers = append(n.peers, addr)
	n.peerSet[addr] = true
}

// Join contacts an existing member, installs the returned peer sample, and
// registers this node with the contact.
func (n *Node) Join(contact string) error {
	conn, err := net.DialTimeout("tcp", contact, n.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("gossipnode: join dial: %w", err)
	}
	defer conn.Close()
	if err := wire.Encode(conn, wire.Join{Addr: n.Addr()}); err != nil {
		return fmt.Errorf("gossipnode: join send: %w", err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(n.cfg.DialTimeout)); err != nil {
		return err
	}
	msg, err := wire.Decode(conn)
	if err != nil {
		return fmt.Errorf("gossipnode: join ack: %w", err)
	}
	ack, ok := msg.(wire.JoinAck)
	if !ok {
		return fmt.Errorf("gossipnode: unexpected join reply %T", msg)
	}
	n.mu.Lock()
	n.addPeerLocked(contact)
	for _, p := range ack.Peers {
		n.addPeerLocked(p)
	}
	n.mu.Unlock()
	return nil
}

// Publish multicasts payload to the group via gossip. The local node
// counts as delivered.
func (n *Node) Publish(payload []byte) error {
	g := wire.Gossip{
		MsgID:   n.nextMsgID(),
		Origin:  n.Addr(),
		Payload: append([]byte(nil), payload...),
	}
	n.handleGossip(g)
	return nil
}

func (n *Node) nextMsgID() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Uint64()
}

// Close shuts the node down and waits for its goroutines.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	err := n.ln.Close()
	n.wg.Wait()
	return err
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serve(conn)
		}()
	}
}

// serve handles one inbound connection until EOF.
func (n *Node) serve(conn net.Conn) {
	defer conn.Close()
	for {
		if err := conn.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
			return
		}
		msg, err := wire.Decode(conn)
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case wire.Gossip:
			n.handleGossip(m)
		case wire.Join:
			n.handleJoin(conn, m)
		case wire.Ping:
			_ = wire.Encode(conn, wire.Pong{Seq: m.Seq})
		default:
			return
		}
	}
}

func (n *Node) handleJoin(conn net.Conn, j wire.Join) {
	n.mu.Lock()
	sample := append([]string(nil), n.peers...)
	n.addPeerLocked(j.Addr)
	n.mu.Unlock()
	if len(sample) > 16 {
		n.mu.Lock()
		n.rng.Shuffle(len(sample), func(a, b int) { sample[a], sample[b] = sample[b], sample[a] })
		n.mu.Unlock()
		sample = sample[:16]
	}
	sample = append(sample, n.Addr())
	_ = wire.Encode(conn, wire.JoinAck{Peers: sample})
}

// handleGossip implements the paper's algorithm: deliver + forward on
// first receipt, discard duplicates.
func (n *Node) handleGossip(g wire.Gossip) {
	n.mu.Lock()
	if n.seen[g.MsgID] {
		n.duplicate++
		n.mu.Unlock()
		return
	}
	n.markSeenLocked(g.MsgID)
	n.delivered++
	// Draw the fanout and the targets under the lock (the RNG is not
	// concurrency-safe); dial outside it.
	f := n.cfg.Fanout.Sample(n.rng)
	var targets []string
	if len(n.peers) > 0 {
		k := f
		if k > len(n.peers) {
			k = len(n.peers)
		}
		idx := n.rng.SampleInts(nil, len(n.peers), k)
		for _, i := range idx {
			targets = append(targets, n.peers[i])
		}
	}
	deliver := n.cfg.Deliver
	n.mu.Unlock()

	if deliver != nil {
		deliver(g)
	}
	fwd := g
	fwd.Hops++
	for _, addr := range targets {
		if n.send(addr, fwd) {
			n.mu.Lock()
			n.forwarded++
			n.mu.Unlock()
		}
	}
}

// markSeenLocked records a message id with FIFO eviction.
func (n *Node) markSeenLocked(id uint64) {
	n.seen[id] = true
	n.seenFIFO = append(n.seenFIFO, id)
	if len(n.seenFIFO) > n.cfg.MaxSeen {
		old := n.seenFIFO[0]
		n.seenFIFO = n.seenFIFO[1:]
		delete(n.seen, old)
	}
}

// send dials addr and writes one message, fire-and-forget.
func (n *Node) send(addr string, msg any) bool {
	conn, err := net.DialTimeout("tcp", addr, n.cfg.DialTimeout)
	if err != nil {
		return false
	}
	defer conn.Close()
	return wire.Encode(conn, msg) == nil
}

// Ping probes a peer and reports whether it answered within the timeout.
func (n *Node) Ping(addr string, seq uint64) bool {
	conn, err := net.DialTimeout("tcp", addr, n.cfg.DialTimeout)
	if err != nil {
		return false
	}
	defer conn.Close()
	if err := wire.Encode(conn, wire.Ping{Seq: seq}); err != nil {
		return false
	}
	if err := conn.SetReadDeadline(time.Now().Add(n.cfg.DialTimeout)); err != nil {
		return false
	}
	msg, err := wire.Decode(conn)
	if err != nil {
		return false
	}
	pong, ok := msg.(wire.Pong)
	return ok && pong.Seq == seq
}
