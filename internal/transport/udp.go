package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"godsm/internal/metrics"
	"godsm/internal/wire"
)

// udpTransport binds one loopback socket per endpoint. Datagrams really
// traverse the kernel's UDP stack, so drops (full socket buffers) and
// reorder are possible — exactly the conditions the DSM's reliability
// layer (rid/retransmit/dedup) exists for.
//
// Frames larger than a safe datagram are split into fragments:
//
//	uvarint seq | uvarint index | uvarint count | fragment bytes
//
// seq is a per-sender-socket counter; the receiver reassembles fragments
// keyed by (sender address, seq) with bounded eviction, so a lost
// fragment costs the whole frame (the retransmit path recovers it).
//
// Send writes every frame before it returns: a frame that fits one
// datagram goes out as a single fragment with count == 1. Nothing is held
// back to share a datagram, because the DSM's exchanges are blocking
// request/reply pairs whose latency sets the run time.
type udpTransport struct {
	nodes, ports int
	conns        []*net.UDPConn // index: node*ports + port
	addrs        []*net.UDPAddr
	seq          []atomic.Uint64 // per-sender fragment sequence
	send         []*sendState    // per-sender write lock + scratch datagram
	readErrs     *metrics.Counter
	wg           sync.WaitGroup
	closeOnce    sync.Once
	closed       chan struct{}
	started      bool
}

const (
	// udpFragSize keeps each datagram safely under the 65507-byte UDP
	// payload ceiling with room for the fragment header.
	udpFragSize = 60000
	// udpMaxAssembly bounds the per-endpoint reassembly table; beyond it
	// the oldest entry is evicted (its frame is lost to the retransmit
	// path, like any drop).
	udpMaxAssembly = 64
	// udpReadBuffer asks the kernel for enough socket buffer to ride out
	// bursts; best effort.
	udpReadBuffer = 4 << 20
	// udpBackoffMin/Max bound the sleep between reads after a persistent
	// (non-closure) socket error, so a broken socket cannot hot-spin the
	// pump at 100% CPU.
	udpBackoffMin = time.Millisecond
	udpBackoffMax = 100 * time.Millisecond
)

// sendState serializes one sender endpoint's socket writes and holds its
// reusable scratch datagram.
type sendState struct {
	mu      sync.Mutex
	scratch []byte // reused datagram build buffer
}

func newUDP(nodes, ports int) (*udpTransport, error) {
	t := &udpTransport{
		nodes:  nodes,
		ports:  ports,
		conns:  make([]*net.UDPConn, nodes*ports),
		addrs:  make([]*net.UDPAddr, nodes*ports),
		seq:    make([]atomic.Uint64, nodes*ports),
		send:   make([]*sendState, nodes*ports),
		closed: make(chan struct{}),
	}
	for i := range t.conns {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0})
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("transport: udp listen: %w", err)
		}
		_ = conn.SetReadBuffer(udpReadBuffer)
		t.conns[i] = conn
		t.addrs[i] = conn.LocalAddr().(*net.UDPAddr)
		t.send[i] = &sendState{}
	}
	return t, nil
}

// SetMetrics resolves the transport's internal counters against reg.
// Must be called before Start (the pump goroutines read the handles
// without synchronization). A nil registry leaves the nil-safe handles
// in place at zero cost.
func (t *udpTransport) SetMetrics(reg *metrics.Registry) {
	t.readErrs = reg.Counter("godsm_transport_read_errors_total",
		"socket read errors in the udp receive pump (backed off, treated as loss)",
		"backend", KindUDP)
}

func (t *udpTransport) idx(a Addr) (int, error) {
	if a.Node < 0 || a.Node >= t.nodes || a.Port < 0 || a.Port >= t.ports {
		return 0, fmt.Errorf("transport: bad address %+v", a)
	}
	return a.Node*t.ports + a.Port, nil
}

// assemblyKey identifies one in-flight fragmented frame.
type assemblyKey struct {
	sender string
	seq    uint64
}

type assembly struct {
	frags   [][]byte
	got     int
	arrival uint64 // eviction order stamp
}

// reassembler turns raw datagrams back into frames: it parses fragment
// headers, reassembles multi-fragment frames with bounded state, and
// rejects the malformed — truncated headers, zero or oversized fragment
// counts (bounded by maxFrags so a corrupt datagram cannot demand a
// gigabyte allocation), duplicates, and fragments of frames already
// completed (seq at or below the sender's last completed seq would
// otherwise re-create an assembly entry that can never complete and
// squats in the table until eviction).
//
// It is not safe for concurrent use; each receive pump owns one.
type reassembler struct {
	maxFrags uint64
	pending  map[assemblyKey]*assembly
	done     map[string]uint64 // per sender: highest completed multi-fragment seq
	stamp    uint64
}

func newReassembler(maxFrags int) *reassembler {
	if maxFrags < 1 {
		maxFrags = 1
	}
	return &reassembler{
		maxFrags: uint64(maxFrags),
		pending:  make(map[assemblyKey]*assembly),
		done:     make(map[string]uint64),
	}
}

// ingest parses one datagram from sender, calling emit once per completed
// frame. Emitted slices are freshly allocated and owned by the callee.
// Malformed datagrams are dropped silently — on a lossy transport they
// are indistinguishable from loss, which the reliability layer absorbs.
func (r *reassembler) ingest(sender string, b []byte, emit func([]byte)) {
	seq, w := binary.Uvarint(b)
	if w <= 0 {
		return
	}
	b = b[w:]
	idx, w := binary.Uvarint(b)
	if w <= 0 {
		return
	}
	b = b[w:]
	count, w := binary.Uvarint(b)
	if w <= 0 {
		return
	}
	b = b[w:]
	if idx >= count || count > r.maxFrags {
		return // corrupt header
	}
	if count == 1 {
		frame := make([]byte, len(b))
		copy(frame, b)
		emit(frame)
		return
	}
	if seq <= r.done[sender] {
		return // late duplicate of an already-completed frame
	}
	key := assemblyKey{sender: sender, seq: seq}
	as := r.pending[key]
	if as == nil {
		if len(r.pending) >= udpMaxAssembly {
			evictOldest(r.pending)
		}
		r.stamp++
		as = &assembly{frags: make([][]byte, count), arrival: r.stamp}
		r.pending[key] = as
	}
	if int(count) != len(as.frags) || as.frags[idx] != nil {
		return // corrupt or duplicate fragment
	}
	frag := make([]byte, len(b))
	copy(frag, b)
	as.frags[idx] = frag
	as.got++
	if as.got == len(as.frags) {
		delete(r.pending, key)
		if seq > r.done[sender] {
			r.done[sender] = seq
			// Older in-flight assemblies from this sender can no longer
			// complete (their remaining fragments will be dropped by the
			// seq check); free their table slots now.
			for k := range r.pending {
				if k.sender == sender && k.seq <= seq {
					delete(r.pending, k)
				}
			}
		}
		total := 0
		for _, f := range as.frags {
			total += len(f)
		}
		frame := make([]byte, 0, total)
		for _, f := range as.frags {
			frame = append(frame, f...)
		}
		emit(frame)
	}
}

func (t *udpTransport) Start(deliver DeliverFunc) error {
	if t.started {
		return fmt.Errorf("transport: udp already started")
	}
	t.started = true
	for n := 0; n < t.nodes; n++ {
		for p := 0; p < t.ports; p++ {
			to := Addr{Node: n, Port: p}
			conn := t.conns[n*t.ports+p]
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				t.pump(conn, to, deliver)
			}()
		}
	}
	return nil
}

// pump reads datagrams for one endpoint, reassembling fragmented frames.
// Persistent read errors back off exponentially (bounded) instead of
// hot-spinning; each error increments the transport read-error counter.
func (t *udpTransport) pump(conn *net.UDPConn, to Addr, deliver DeliverFunc) {
	buf := make([]byte, udpFragSize+64)
	r := newReassembler(t.MaxFrame()/udpFragSize + 1)
	var backoff time.Duration
	for {
		n, sender, err := conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-t.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			t.readErrs.Inc()
			if backoff == 0 {
				backoff = udpBackoffMin
			} else if backoff < udpBackoffMax {
				backoff *= 2
				if backoff > udpBackoffMax {
					backoff = udpBackoffMax
				}
			}
			select {
			case <-t.closed:
				return
			case <-time.After(backoff):
			}
			continue // treat as a drop
		}
		backoff = 0
		r.ingest(sender.String(), buf[:n], func(frame []byte) {
			deliver(to, frame)
		})
	}
}

func evictOldest(pending map[assemblyKey]*assembly) {
	var oldest assemblyKey
	var min uint64 = ^uint64(0)
	for k, a := range pending {
		if a.arrival < min {
			min = a.arrival
			oldest = k
		}
	}
	delete(pending, oldest)
}

func (t *udpTransport) Send(from, to Addr, frame []byte) error {
	fi, err := t.idx(from)
	if err != nil {
		return err
	}
	ti, err := t.idx(to)
	if err != nil {
		return err
	}
	if len(frame) > t.MaxFrame() {
		return fmt.Errorf("transport: frame of %d bytes exceeds max %d", len(frame), t.MaxFrame())
	}
	st := t.send[fi]
	st.mu.Lock()
	defer st.mu.Unlock()
	return t.writeFragmentsLocked(st, fi, ti, frame)
}

// writeFragmentsLocked sends frame as one or more fragment datagrams,
// each built in the sender's reused scratch buffer (no per-fragment
// allocation). Caller holds st.mu.
func (t *udpTransport) writeFragmentsLocked(st *sendState, fi, ti int, frame []byte) error {
	conn, dst := t.conns[fi], t.addrs[ti]
	seq := t.seq[fi].Add(1)
	count := uint64((len(frame) + udpFragSize - 1) / udpFragSize)
	if count == 0 {
		count = 1
	}
	for idx := uint64(0); idx < count; idx++ {
		lo := int(idx) * udpFragSize
		hi := lo + udpFragSize
		if hi > len(frame) {
			hi = len(frame)
		}
		st.scratch = binary.AppendUvarint(st.scratch[:0], seq)
		st.scratch = binary.AppendUvarint(st.scratch, idx)
		st.scratch = binary.AppendUvarint(st.scratch, count)
		st.scratch = append(st.scratch, frame[lo:hi]...)
		if _, err := conn.WriteToUDP(st.scratch, dst); err != nil {
			// A full socket buffer manifests as an error on some kernels;
			// semantically it is packet loss, which the reliability layer
			// absorbs. Only closure is fatal.
			if errors.Is(err, net.ErrClosed) {
				return err
			}
		}
	}
	return nil
}

func (t *udpTransport) MaxFrame() int { return wire.MaxFrameLen + wire.FrameLenSize }

func (t *udpTransport) Close() error {
	t.closeOnce.Do(func() { close(t.closed) })
	for _, c := range t.conns {
		if c != nil {
			_ = c.Close()
		}
	}
	t.wg.Wait()
	return nil
}
