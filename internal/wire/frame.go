package wire

import (
	"encoding/binary"
	"fmt"
)

// Frames: what actually crosses a transport. One frame per packet:
//
//	[4-byte little-endian length of the rest]
//	[header: uvarint kind, uvarint fromNode, byte fromPort, byte flags,
//	         uvarint modeled size, uvarint rid, uvarint orig]
//	[payload: AppendMessage encoding]
//
// The fixed-width length prefix keeps encoding single-pass (the length is
// patched in after the body is appended, no shifting); everything inside
// is varint. The modeled Table-1 size rides in the header so the
// receiver's traffic accounting matches the sender's without re-deriving
// it.

// Header flag bits.
const (
	flagReply   = 1 << 0
	flagNoFault = 1 << 1
)

// MaxFrameLen bounds one frame's body (header + payload). Generous: the
// largest real frame is a full 64 KiB page reply plus a small header.
const MaxFrameLen = 1 << 20

// FrameLenSize is the byte width of the frame length prefix.
const FrameLenSize = 4

// Header is the per-packet metadata that must survive a real wire — the
// netsim.Packet fields minus the payload.
type Header struct {
	Kind     int
	FromNode int
	FromPort int
	Reply    bool
	NoFault  bool
	Size     int   // modeled payload size (Table 1 accounting)
	Rid      int64 // request id for retransmit/dedup; 0 = untracked
	Orig     int   // node whose reliability layer issued Rid
}

// AppendFrame appends one complete frame (length prefix, header, encoded
// payload) to buf and returns the extended buffer. On error buf is
// returned unextended.
func AppendFrame(buf []byte, h *Header, data any) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = binary.AppendUvarint(buf, uint64(h.Kind))
	buf = binary.AppendUvarint(buf, uint64(h.FromNode))
	var flags byte
	if h.Reply {
		flags |= flagReply
	}
	if h.NoFault {
		flags |= flagNoFault
	}
	buf = append(buf, byte(h.FromPort), flags)
	buf = binary.AppendUvarint(buf, uint64(h.Size))
	buf = binary.AppendUvarint(buf, uint64(h.Rid))
	buf = binary.AppendUvarint(buf, uint64(h.Orig))
	out, err := AppendMessage(buf, h.Kind, data)
	if err != nil {
		return buf[:start], err
	}
	body := len(out) - start - FrameLenSize
	if body > MaxFrameLen {
		return buf[:start], fmt.Errorf("wire: frame body %d exceeds limit %d", body, MaxFrameLen)
	}
	binary.LittleEndian.PutUint32(out[start:], uint32(body))
	return out, nil
}

// DecodeFrame decodes the first frame in b, returning its header, payload
// and total encoded length (prefix included). Input after the frame is
// left for the caller — transports carrying one frame per datagram should
// check n == len(b). Decoding is zero-copy: page images and diff run
// payloads in the returned message alias b, so the caller must not mutate
// or recycle b while the message is live.
func DecodeFrame(b []byte) (Header, any, int, error) {
	var h Header
	if len(b) < FrameLenSize {
		return h, nil, 0, fmt.Errorf("wire: truncated frame length prefix")
	}
	body := binary.LittleEndian.Uint32(b)
	if body > MaxFrameLen {
		return h, nil, 0, fmt.Errorf("wire: frame body %d exceeds limit %d", body, MaxFrameLen)
	}
	if uint32(len(b)-FrameLenSize) < body {
		return h, nil, 0, fmt.Errorf("wire: truncated frame: want %d body bytes, have %d", body, len(b)-FrameLenSize)
	}
	n := FrameLenSize + int(body)
	d := &dec{b: b[FrameLenSize:n]}
	h.Kind = int(d.uvarint())
	h.FromNode = int(d.uvarint())
	port := d.take(2)
	if d.err != nil {
		return h, nil, 0, d.err
	}
	h.FromPort = int(port[0])
	h.Reply = port[1]&flagReply != 0
	h.NoFault = port[1]&flagNoFault != 0
	h.Size = int(d.uvarint())
	h.Rid = int64(d.uvarint())
	h.Orig = int(d.uvarint())
	if d.err != nil {
		return h, nil, 0, d.err
	}
	if !KindValid(h.Kind) {
		return h, nil, 0, fmt.Errorf("wire: unknown message kind %d", h.Kind)
	}
	data, err := DecodeMessage(h.Kind, d.b)
	if err != nil {
		return h, nil, 0, err
	}
	return h, data, n, nil
}
