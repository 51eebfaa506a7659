package transport

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

func collectors(nodes, ports int) (DeliverFunc, func(to Addr) [][]byte) {
	var mu sync.Mutex
	got := make(map[Addr][][]byte)
	deliver := func(to Addr, frame []byte) {
		mu.Lock()
		got[to] = append(got[to], frame)
		mu.Unlock()
	}
	read := func(to Addr) [][]byte {
		mu.Lock()
		defer mu.Unlock()
		return append([][]byte(nil), got[to]...)
	}
	return deliver, read
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for delivery")
		}
		time.Sleep(time.Millisecond)
	}
}

func testBasicDelivery(t *testing.T, kind string) {
	tr, err := New(kind, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	deliver, read := collectors(2, 2)
	if err := tr.Start(deliver); err != nil {
		t.Fatal(err)
	}
	src := Addr{Node: 0, Port: 0}
	dst := Addr{Node: 1, Port: 1}
	want := []byte("hello frame")
	if err := tr.Send(src, dst, want); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(read(dst)) == 1 })
	if got := read(dst)[0]; !bytes.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
	if n := len(read(Addr{Node: 1, Port: 0})); n != 0 {
		t.Fatalf("misdelivered %d frames", n)
	}
}

func TestMemBasicDelivery(t *testing.T) { testBasicDelivery(t, KindMem) }
func TestUDPBasicDelivery(t *testing.T) { testBasicDelivery(t, KindUDP) }

// The caller's slice must not be aliased by the delivered frame.
func testSendCopies(t *testing.T, kind string) {
	tr, err := New(kind, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	deliver, read := collectors(1, 1)
	if err := tr.Start(deliver); err != nil {
		t.Fatal(err)
	}
	a := Addr{}
	frame := []byte("original")
	if err := tr.Send(a, a, frame); err != nil {
		t.Fatal(err)
	}
	copy(frame, "MUTATED!") // sender scribbles after Send returns
	waitFor(t, func() bool { return len(read(a)) == 1 })
	if got := read(a)[0]; !bytes.Equal(got, []byte("original")) {
		t.Fatalf("delivered frame aliases sender buffer: %q", got)
	}
}

func TestMemSendCopies(t *testing.T) { testSendCopies(t, KindMem) }
func TestUDPSendCopies(t *testing.T) { testSendCopies(t, KindUDP) }

// A frame bigger than one datagram must survive fragmentation.
func TestUDPFragmentation(t *testing.T) {
	tr, err := New(KindUDP, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	deliver, read := collectors(1, 1)
	if err := tr.Start(deliver); err != nil {
		t.Fatal(err)
	}
	a := Addr{}
	want := make([]byte, 3*udpFragSize+137) // 4 fragments
	for i := range want {
		want[i] = byte(i * 31)
	}
	// Loopback fragments rarely drop, but retry a few times to be safe.
	for attempt := 0; attempt < 10; attempt++ {
		if err := tr.Send(a, a, want); err != nil {
			t.Fatal(err)
		}
		ok := func() bool { return len(read(a)) > 0 }
		deadline := time.Now().Add(time.Second)
		for !ok() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if ok() {
			break
		}
	}
	frames := read(a)
	if len(frames) == 0 {
		t.Fatal("fragmented frame never reassembled")
	}
	if !bytes.Equal(frames[0], want) {
		t.Fatalf("reassembled frame differs: %d bytes vs %d", len(frames[0]), len(want))
	}
}

// mem preserves per-pair ordering and delivers everything.
func TestMemOrderedDelivery(t *testing.T) {
	tr, err := New(KindMem, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	deliver, read := collectors(2, 1)
	if err := tr.Start(deliver); err != nil {
		t.Fatal(err)
	}
	src := Addr{Node: 0}
	dst := Addr{Node: 1}
	const n = 500
	for i := 0; i < n; i++ {
		if err := tr.Send(src, dst, []byte(fmt.Sprintf("frame-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(read(dst)) == n })
	for i, f := range read(dst) {
		if want := fmt.Sprintf("frame-%04d", i); string(f) != want {
			t.Fatalf("frame %d = %q, want %q", i, f, want)
		}
	}
}

func TestNewRejectsUnknownKind(t *testing.T) {
	if _, err := New("carrier-pigeon", 2, 2); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func testBadAddress(t *testing.T, kind string) {
	tr, err := New(kind, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Send(Addr{}, Addr{Node: 9}, []byte("x")); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if err := tr.Send(Addr{Node: 9}, Addr{}, []byte("x")); err == nil && kind == KindUDP {
		t.Fatal("out-of-range source accepted")
	}
}

func TestMemBadAddress(t *testing.T) { testBadAddress(t, KindMem) }
func TestUDPBadAddress(t *testing.T) { testBadAddress(t, KindUDP) }

func TestCloseUnblocksSend(t *testing.T) {
	tr, err := New(KindMem, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Never started: fill the queue, then Close must unblock the sender.
	a := Addr{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < memQueueDepth+10; i++ {
			if err := tr.Send(a, a, []byte("x")); err != nil {
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked past Close")
	}
}

func TestTCPBasicDelivery(t *testing.T) { testBasicDelivery(t, KindTCP) }
func TestTCPSendCopies(t *testing.T)    { testSendCopies(t, KindTCP) }
func TestTCPBadAddress(t *testing.T)    { testBadAddress(t, KindTCP) }

// tcp preserves per-pair ordering across many small writes and delivers
// everything, like mem.
func TestTCPOrderedDelivery(t *testing.T) {
	tr, err := New(KindTCP, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	deliver, read := collectors(2, 1)
	if err := tr.Start(deliver); err != nil {
		t.Fatal(err)
	}
	src := Addr{Node: 0}
	dst := Addr{Node: 1}
	const n = 500
	for i := 0; i < n; i++ {
		if err := tr.Send(src, dst, []byte(fmt.Sprintf("frame-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(read(dst)) == n })
	for i, f := range read(dst) {
		if want := fmt.Sprintf("frame-%04d", i); string(f) != want {
			t.Fatalf("frame %d = %q, want %q", i, f, want)
		}
	}
}

// A frame larger than the receiver's 64 KiB read buffer crosses the
// stream in one piece, and interleaves correctly with a small frame to
// another port.
func TestTCPLargeFrame(t *testing.T) {
	tr, err := New(KindTCP, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	deliver, read := collectors(1, 2)
	if err := tr.Start(deliver); err != nil {
		t.Fatal(err)
	}
	src := Addr{}
	big := Addr{Port: 1}
	want := make([]byte, 180000)
	for i := range want {
		want[i] = byte(i * 31)
	}
	small := []byte("just a small one")
	if err := tr.Send(src, src, small); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(src, big, want); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(read(big)) == 1 && len(read(src)) == 1 })
	if got := read(big)[0]; !bytes.Equal(got, want) {
		t.Fatalf("large frame differs: %d bytes vs %d", len(got), len(want))
	}
	if got := read(src)[0]; !bytes.Equal(got, small) {
		t.Fatalf("small frame differs: %q", got)
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	for _, want := range []string{KindSim, KindMem, KindUDP, KindTCP} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("Names() = %v: missing %q", names, want)
		}
	}
	e, ok := Lookup(KindSim)
	if !ok || !e.Virtual {
		t.Fatalf("Lookup(sim) = %+v, %v: want a virtual entry", e, ok)
	}
	if _, err := New(KindSim, 2, 2); err == nil {
		t.Fatal("New(sim) built a transport for the virtual backend")
	}
	for _, kind := range []string{KindMem, KindUDP, KindTCP} {
		e, ok := Lookup(kind)
		if !ok || e.Virtual || e.New == nil {
			t.Fatalf("Lookup(%s) = %+v, %v: want a real factory", kind, e, ok)
		}
	}
}
