package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"
)

// fragDatagram builds one fragment datagram exactly as Send's fragment
// path does.
func fragDatagram(seq, idx, count uint64, payload []byte) []byte {
	d := binary.AppendUvarint(nil, seq)
	d = binary.AppendUvarint(d, idx)
	d = binary.AppendUvarint(d, count)
	return append(d, payload...)
}

func testMaxFrags() int { return (wireMaxFrame())/udpFragSize + 1 }

func wireMaxFrame() int {
	var t udpTransport
	return t.MaxFrame()
}

func TestReassemblerSingleFragment(t *testing.T) {
	r := newReassembler(testMaxFrags())
	var got [][]byte
	emit := func(f []byte) { got = append(got, f) }
	r.ingest("s1", fragDatagram(1, 0, 1, []byte("whole frame")), emit)
	if len(got) != 1 || string(got[0]) != "whole frame" {
		t.Fatalf("got %q", got)
	}
}

func TestReassemblerOutOfOrderInterleaved(t *testing.T) {
	r := newReassembler(testMaxFrags())
	var got [][]byte
	emit := func(f []byte) { got = append(got, f) }
	// Two senders interleave two frames each, fragments out of order.
	r.ingest("a", fragDatagram(1, 1, 2, []byte("A2")), emit)
	r.ingest("b", fragDatagram(1, 1, 2, []byte("B2")), emit)
	r.ingest("b", fragDatagram(1, 0, 2, []byte("B1")), emit)
	r.ingest("a", fragDatagram(1, 0, 2, []byte("A1")), emit)
	if len(got) != 2 {
		t.Fatalf("completed %d frames, want 2", len(got))
	}
	if string(got[0]) != "B1B2" || string(got[1]) != "A1A2" {
		t.Fatalf("got %q, %q", got[0], got[1])
	}
}

// A corrupt count must not demand a huge fragment-table allocation: any
// count beyond what MaxFrame can need is rejected outright.
func TestReassemblerOversizedCountRejected(t *testing.T) {
	r := newReassembler(testMaxFrags())
	var got [][]byte
	emit := func(f []byte) { got = append(got, f) }
	huge := uint64(1) << 40
	r.ingest("s", fragDatagram(1, 0, huge, []byte("x")), emit)
	if len(r.pending) != 0 || len(got) != 0 {
		t.Fatalf("oversized count accepted: pending=%d emitted=%d", len(r.pending), len(got))
	}
	// The largest legal count is accepted.
	legal := uint64(testMaxFrags())
	r.ingest("s", fragDatagram(2, 0, legal, []byte("x")), emit)
	if len(r.pending) != 1 {
		t.Fatalf("legal count %d rejected", legal)
	}
}

func TestReassemblerTruncatedHeaders(t *testing.T) {
	r := newReassembler(testMaxFrags())
	var got [][]byte
	emit := func(f []byte) { got = append(got, f) }
	cases := [][]byte{
		nil,
		{},
		{0x80}, // truncated seq varint
		fragDatagram(1, 0, 1, nil)[:1],
		fragDatagram(1, 0, 1, nil)[:2],
		fragDatagram(1, 5, 2, []byte("idx >= count")),
	}
	for i, dg := range cases {
		r.ingest("s", dg, emit)
		if len(got) != 0 || len(r.pending) != 0 {
			t.Fatalf("case %d: malformed datagram accepted", i)
		}
	}
}

// Fragments of an already-completed frame must not re-create an assembly
// entry that can never complete.
func TestReassemblerStaleSeqDropped(t *testing.T) {
	r := newReassembler(testMaxFrags())
	var got [][]byte
	emit := func(f []byte) { got = append(got, f) }
	r.ingest("s", fragDatagram(7, 0, 2, []byte("p1")), emit)
	r.ingest("s", fragDatagram(7, 1, 2, []byte("p2")), emit)
	if len(got) != 1 || string(got[0]) != "p1p2" {
		t.Fatalf("frame not completed: %q", got)
	}
	// A late duplicate fragment of seq 7 arrives again.
	r.ingest("s", fragDatagram(7, 0, 2, []byte("p1")), emit)
	if len(r.pending) != 0 {
		t.Fatal("late duplicate re-created an assembly entry")
	}
	// Seqs at or below the completed one are stale too; later seqs are not.
	r.ingest("s", fragDatagram(6, 0, 2, []byte("q1")), emit)
	if len(r.pending) != 0 {
		t.Fatal("stale seq re-created an assembly entry")
	}
	r.ingest("s", fragDatagram(8, 0, 2, []byte("r1")), emit)
	if len(r.pending) != 1 {
		t.Fatal("fresh seq rejected")
	}
	// Another sender's seq space is independent.
	r.ingest("other", fragDatagram(3, 0, 2, []byte("o1")), emit)
	if len(r.pending) != 2 {
		t.Fatal("per-sender seq tracking leaked across senders")
	}
}

// Completing a newer frame prunes this sender's older half-built entries
// (their remaining fragments would be dropped anyway).
func TestReassemblerCompletionPrunesOlder(t *testing.T) {
	r := newReassembler(testMaxFrags())
	var got [][]byte
	emit := func(f []byte) { got = append(got, f) }
	r.ingest("s", fragDatagram(1, 0, 2, []byte("old")), emit)
	r.ingest("s", fragDatagram(2, 0, 2, []byte("n1")), emit)
	r.ingest("s", fragDatagram(2, 1, 2, []byte("n2")), emit)
	if len(got) != 1 {
		t.Fatalf("completed %d frames, want 1", len(got))
	}
	if len(r.pending) != 0 {
		t.Fatalf("stale entry for seq 1 still pending (%d entries)", len(r.pending))
	}
}

// A datagram with a zero fragment count is malformed: no frame has zero
// fragments, so it emits nothing and leaves nothing pending.
func TestReassemblerRejectsCountZero(t *testing.T) {
	r := newReassembler(testMaxFrags())
	var got [][]byte
	emit := func(f []byte) { got = append(got, f) }
	for _, dg := range [][]byte{
		fragDatagram(1, 0, 0, nil),
		fragDatagram(2, 0, 0, []byte{4, 'g', 'o', 'o', 'd'}),
		fragDatagram(3, 1, 0, []byte("x")),
	} {
		r.ingest("s", dg, emit)
	}
	if len(got) != 0 || len(r.pending) != 0 {
		t.Fatalf("count-0 datagram accepted: emitted=%q pending=%d", got, len(r.pending))
	}
}

// A frame that is an exact multiple of udpFragSize must fragment and
// reassemble with no short tail fragment (regression: off-by-one risk in
// the count/boundary arithmetic).
func TestUDPExactMultipleOfFragSize(t *testing.T) {
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
	want := make([]byte, 2*udpFragSize) // exactly 2 fragments, no remainder
	for i := range want {
		want[i] = byte(i * 13)
	}
	for attempt := 0; attempt < 10; attempt++ {
		if err := tr.Send(a, a, want); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(time.Second)
		for len(read(a)) == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if len(read(a)) > 0 {
			break
		}
	}
	frames := read(a)
	if len(frames) == 0 {
		t.Fatal("exact-multiple frame never reassembled")
	}
	if !bytes.Equal(frames[0], want) {
		t.Fatalf("reassembled frame differs: %d bytes vs %d", len(frames[0]), len(want))
	}
}

// Many small frames to one destination all arrive, one datagram each,
// alongside a multi-fragment frame sent after them.
func TestUDPManySmallFrames(t *testing.T) {
	tr, err := New(KindUDP, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	deliver, read := collectors(2, 1)
	if err := tr.Start(deliver); err != nil {
		t.Fatal(err)
	}
	src, dst := Addr{Node: 0}, Addr{Node: 1}
	const n = 200
	for attempt := 0; attempt < 10; attempt++ {
		for i := 0; i < n; i++ {
			if err := tr.Send(src, dst, []byte(fmt.Sprintf("small-%04d", i))); err != nil {
				t.Fatal(err)
			}
		}
		big := make([]byte, udpFragSize+100)
		if err := tr.Send(src, dst, big); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(time.Second)
		for len(read(dst)) < n+1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if len(read(dst)) >= n+1 {
			break
		}
	}
	frames := read(dst)
	if len(frames) < n+1 {
		t.Fatalf("delivered %d frames, want %d", len(frames), n+1)
	}
	seen := make(map[string]bool)
	for _, f := range frames {
		seen[string(f)] = true
	}
	for i := 0; i < n; i++ {
		if !seen[fmt.Sprintf("small-%04d", i)] {
			t.Fatalf("small frame %d lost", i)
		}
	}
}

// FuzzUDPReassembly drives the reassembler with arbitrary datagram
// streams across a handful of senders and checks its bounded-state
// invariants: the pending table never exceeds udpMaxAssembly and no
// assembly ever allocates more than maxFrags fragment slots.
func FuzzUDPReassembly(f *testing.F) {
	stream := func(dgrams ...[]byte) []byte {
		var out []byte
		for i, dg := range dgrams {
			out = append(out, byte(i)) // sender selector
			var l [2]byte
			binary.BigEndian.PutUint16(l[:], uint16(len(dg)))
			out = append(out, l[:]...)
			out = append(out, dg...)
		}
		return out
	}
	f.Add(stream(fragDatagram(1, 0, 1, []byte("single"))))
	f.Add(stream(
		fragDatagram(1, 0, 2, []byte("p1")),
		fragDatagram(1, 1, 2, []byte("p2")),
		fragDatagram(1, 0, 2, []byte("late dup")),
	))
	f.Add(stream(fragDatagram(1, 0, 1<<40, []byte("huge count"))))
	f.Add(stream(fragDatagram(1, 0, 0, []byte{1, 'a', 2, 'b', 'b'})))
	f.Add(stream(
		fragDatagram(2, 1, 3, []byte("ooo")),
		fragDatagram(2, 0, 3, []byte("ooo")),
		fragDatagram(2, 2, 3, []byte("ooo")),
	))
	f.Add(stream([]byte{0x80}, []byte{}, fragDatagram(1, 0, 1, nil)[:2]))
	f.Fuzz(func(t *testing.T, data []byte) {
		maxFrags := testMaxFrags()
		r := newReassembler(maxFrags)
		senders := [4]string{"s0", "s1", "s2", "s3"}
		for len(data) >= 3 {
			sender := senders[int(data[0])%len(senders)]
			l := int(binary.BigEndian.Uint16(data[1:3]))
			data = data[3:]
			if l > len(data) {
				l = len(data)
			}
			r.ingest(sender, data[:l], func(frame []byte) {
				_ = frame // contents arbitrary; only invariants matter
			})
			data = data[l:]
			if len(r.pending) > udpMaxAssembly {
				t.Fatalf("pending table grew to %d (max %d)", len(r.pending), udpMaxAssembly)
			}
			for k, as := range r.pending {
				if uint64(len(as.frags)) > uint64(maxFrags) {
					t.Fatalf("assembly %v allocated %d fragment slots (max %d)", k, len(as.frags), maxFrags)
				}
				if as.got > len(as.frags) {
					t.Fatalf("assembly %v got %d of %d", k, as.got, len(as.frags))
				}
			}
		}
	})
}

// The fragment path must reuse the sender's scratch buffer rather than
// allocating a fresh datagram per fragment.
func BenchmarkUDPSendLarge(b *testing.B) {
	tr, err := New(KindUDP, 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Start(func(Addr, []byte) {}); err != nil {
		b.Fatal(err)
	}
	src, dst := Addr{Port: 0}, Addr{Port: 1}
	frame := make([]byte, 3*udpFragSize+137)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Send(src, dst, frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUDPSendSmall(b *testing.B) {
	tr, err := New(KindUDP, 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Start(func(Addr, []byte) {}); err != nil {
		b.Fatal(err)
	}
	src, dst := Addr{Port: 0}, Addr{Port: 1}
	frame := make([]byte, 200)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Send(src, dst, frame); err != nil {
			b.Fatal(err)
		}
	}
}
