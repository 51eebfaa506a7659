package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"godsm/internal/metrics"
	"godsm/internal/wire"
)

// tcpTransport carries frames over real TCP connections: one listener
// per node, and one lazily-dialed persistent connection per ordered node
// pair — the dialer writes, the acceptor reads. Unlike udp the stream is
// reliable and ordered, so there is no fragmentation or reassembly; a
// record on the wire is
//
//	[1-byte destination port][uvarint frame length][frame]
//
// The destination node is implied by which listener the connection
// reached, and the record carries its own length so the frame stays
// fully opaque (the same contract as mem and udp).
//
// Send writes each record before it returns, like udp: nothing waits to
// share a write with later frames.
//
// This backend binds 127.0.0.1 like udp, but nothing in it assumes
// loopback: pointed at remote listener addresses, the same stream format
// spans hosts.
type tcpTransport struct {
	nodes, ports int
	lns          []net.Listener // per node
	laddrs       []string       // per node, the listener's address
	peers        []*tcpPeer     // write side, index: from*nodes + to
	writeErrs    *metrics.Counter

	mu        sync.Mutex // guards accepted (pump connections)
	accepted  []net.Conn
	wg        sync.WaitGroup
	closeOnce sync.Once
	closed    chan struct{}
	started   bool
}

// tcpDialTimeout bounds the lazy connect; on loopback it is instant,
// across hosts a dead peer should fail fast rather than stall Send.
const tcpDialTimeout = 5 * time.Second

// tcpPeer is the write side of one ordered node pair: the persistent
// connection (nil until the first write dials it) plus the reused record
// build buffer.
type tcpPeer struct {
	mu   sync.Mutex
	conn net.Conn
	buf  []byte
}

func newTCP(nodes, ports int) (*tcpTransport, error) {
	if ports > 256 {
		return nil, fmt.Errorf("transport: tcp carries the port in one byte, got %d ports", ports)
	}
	t := &tcpTransport{
		nodes:  nodes,
		ports:  ports,
		lns:    make([]net.Listener, nodes),
		laddrs: make([]string, nodes),
		peers:  make([]*tcpPeer, nodes*nodes),
		closed: make(chan struct{}),
	}
	for i := range t.peers {
		t.peers[i] = &tcpPeer{}
	}
	for n := 0; n < nodes; n++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("transport: tcp listen: %w", err)
		}
		t.lns[n] = ln
		t.laddrs[n] = ln.Addr().String()
	}
	return t, nil
}

// SetMetrics resolves the transport's internal counters against reg.
// Must be called before Start. A nil registry leaves the nil-safe
// handles in place.
func (t *tcpTransport) SetMetrics(reg *metrics.Registry) {
	t.writeErrs = reg.Counter("godsm_transport_write_errors_total",
		"stream write/dial errors in the tcp send path (connection dropped and redialed)",
		"backend", KindTCP)
}

func (t *tcpTransport) check(a Addr) error {
	if a.Node < 0 || a.Node >= t.nodes || a.Port < 0 || a.Port >= t.ports {
		return fmt.Errorf("transport: bad address %+v", a)
	}
	return nil
}

func (t *tcpTransport) Start(deliver DeliverFunc) error {
	if t.started {
		return fmt.Errorf("transport: tcp already started")
	}
	t.started = true
	for n := 0; n < t.nodes; n++ {
		ln, to := t.lns[n], n
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.acceptLoop(ln, to, deliver)
		}()
	}
	return nil
}

// acceptLoop admits inbound connections for one node and hands each to a
// read pump. Every dialing peer gets its own connection, so pump count is
// bounded by the pair count.
func (t *tcpTransport) acceptLoop(ln net.Listener, node int, deliver DeliverFunc) {
	for {
		c, err := ln.Accept()
		if err != nil {
			select {
			case <-t.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		t.mu.Lock()
		t.accepted = append(t.accepted, c)
		t.mu.Unlock()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.readPump(c, node, deliver)
		}()
	}
}

// readPump decodes [port][length][frame] records off one connection and
// delivers each frame. Any stream error — including a malformed record,
// which on a reliable stream means a peer bug rather than line noise —
// drops the connection; the writer redials on its next Send.
func (t *tcpTransport) readPump(c net.Conn, node int, deliver DeliverFunc) {
	defer c.Close()
	br := bufio.NewReaderSize(c, 64<<10)
	for {
		port, err := br.ReadByte()
		if err != nil {
			return
		}
		if int(port) >= t.ports {
			return // corrupt record boundary; resynchronization is hopeless
		}
		length, err := binary.ReadUvarint(br)
		if err != nil || length > uint64(t.MaxFrame()) {
			return
		}
		frame := make([]byte, length)
		if _, err := io.ReadFull(br, frame); err != nil {
			return
		}
		deliver(Addr{Node: node, Port: int(port)}, frame)
	}
}

func (t *tcpTransport) Send(from, to Addr, frame []byte) error {
	if err := t.check(from); err != nil {
		return err
	}
	if err := t.check(to); err != nil {
		return err
	}
	if len(frame) > t.MaxFrame() {
		return fmt.Errorf("transport: frame of %d bytes exceeds max %d", len(frame), t.MaxFrame())
	}
	p := t.peers[from.Node*t.nodes+to.Node]
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buf = append(p.buf[:0], byte(to.Port))
	p.buf = binary.AppendUvarint(p.buf, uint64(len(frame)))
	p.buf = append(p.buf, frame...)
	return t.writeLocked(p, to.Node)
}

// writeLocked writes the record in p.buf, dialing the peer's listener on
// first use or after a dropped connection. A dial or write failure
// discards the record and the connection — on a cross-host deployment
// that is loss for the reliability layer to absorb; on loopback it only
// happens at teardown. Caller holds p.mu.
func (t *tcpTransport) writeLocked(p *tcpPeer, toNode int) error {
	select {
	case <-t.closed:
		return fmt.Errorf("transport: tcp closed")
	default:
	}
	if p.conn == nil {
		c, err := net.DialTimeout("tcp", t.laddrs[toNode], tcpDialTimeout)
		if err != nil {
			t.writeErrs.Inc()
			return nil
		}
		if tc, ok := c.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true)
		}
		p.conn = c
	}
	if _, err := p.conn.Write(p.buf); err != nil {
		t.writeErrs.Inc()
		p.conn.Close()
		p.conn = nil
	}
	return nil
}

func (t *tcpTransport) MaxFrame() int { return wire.MaxFrameLen + wire.FrameLenSize }

func (t *tcpTransport) Close() error {
	t.closeOnce.Do(func() { close(t.closed) })
	for _, ln := range t.lns {
		if ln != nil {
			_ = ln.Close()
		}
	}
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		if p.conn != nil {
			_ = p.conn.Close()
			p.conn = nil
		}
		p.buf = nil
		p.mu.Unlock()
	}
	t.mu.Lock()
	for _, c := range t.accepted {
		_ = c.Close()
	}
	t.accepted = nil
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}
