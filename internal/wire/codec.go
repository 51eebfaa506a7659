package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"godsm/internal/vm"
)

// The payload codec. Append* functions append a message's encoding to a
// caller-owned buffer (allocation-lean: steady-state encodes reuse one
// buffer per sender). Decoding is strict: every length and count is
// validated against the remaining bytes, truncated or corrupt input
// returns an error, and no input panics.

// Integer convention: naturally non-negative fields (kinds, versions,
// lengths, counts) are uvarints; fields that may be negative (vector
// clock entries start at -1, page ids are signed) are zigzag varints.
// float64 and uint64 values (reductions, copyset bitmaps) are fixed
// 8-byte little-endian: they are near-incompressible and a varint would
// average longer.

type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) int() int { return int(d.varint()) }

func (d *dec) uint32() uint32 {
	v := d.uvarint()
	if v > math.MaxUint32 {
		d.fail("uint32 out of range: %d", v)
		return 0
	}
	return uint32(v)
}

func (d *dec) pageID() vm.PageID { return vm.PageID(d.varint()) }

func (d *dec) bool() bool {
	switch v := d.uvarint(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bool out of range: %d", v)
		return false
	}
}

// count reads a length prefix and bounds it by the remaining input: every
// encoded element occupies at least one byte, so a larger count is
// corrupt. The bound also stops garbage input from driving huge
// allocations.
func (d *dec) count() int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.b)) {
		d.fail("count %d exceeds %d remaining bytes", v, len(d.b))
		return 0
	}
	return int(v)
}

// copyset decodes the nonzero-prefix word list HomePullRep carries.
func (d *dec) copyset() [CopysetWords]uint64 {
	var cs [CopysetWords]uint64
	n := d.uvarint()
	if d.err != nil {
		return cs
	}
	if n > CopysetWords {
		d.fail("copyset of %d words exceeds %d", n, CopysetWords)
		return cs
	}
	for i := 0; i < int(n); i++ {
		cs[i] = d.fixed64()
	}
	return cs
}

func (d *dec) fixed64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("truncated fixed64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) float64() float64 { return math.Float64frombits(d.fixed64()) }

// take consumes exactly n bytes (n already validated by count or an
// explicit check).
func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b) {
		d.fail("truncated: want %d bytes, have %d", n, len(d.b))
		return nil
	}
	s := d.b[:n]
	d.b = d.b[n:]
	return s
}

func (d *dec) ints() []int {
	n := d.count()
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.int()
	}
	return out
}

func appendInts(b []byte, vs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

// bytes reads a length-prefixed byte string. Zero-copy: the returned
// slice aliases the input buffer (capped at its own length), so the
// caller must not mutate or recycle the buffer while the decoded message
// is live. Transports hand frame ownership to the receiver and the
// EncodeInFlight assertion polices senders, which makes the aliasing
// legal on the real receive path. Zero length decodes as nil.
func (d *dec) bytes() []byte {
	n := d.count()
	if d.err != nil {
		return nil
	}
	if n > vm.MaxPageSize {
		d.fail("byte string length %d exceeds max page size", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	s := d.take(n)
	if d.err != nil {
		return nil
	}
	return s[:n:n]
}

func appendBytes(b, s []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendDiff(b []byte, diff vm.Diff) []byte {
	b = binary.AppendUvarint(b, uint64(diff.WireSize()))
	return diff.AppendEncode(b)
}

func (d *dec) diff() vm.Diff {
	n := d.count()
	sub := d.take(n)
	if d.err != nil {
		return vm.Diff{}
	}
	diff, err := vm.DecodeDiff(sub)
	if err != nil {
		d.fail("diff: %v", err)
		return vm.Diff{}
	}
	return diff
}

func appendNotice(b []byte, n *WriteNotice) []byte {
	b = binary.AppendVarint(b, int64(n.Page))
	b = binary.AppendVarint(b, int64(n.Creator))
	return binary.AppendVarint(b, int64(n.Epoch))
}

func (d *dec) notice() WriteNotice {
	return WriteNotice{Page: d.pageID(), Creator: d.int(), Epoch: d.int()}
}

func appendNotices(b []byte, ns []WriteNotice) []byte {
	b = binary.AppendUvarint(b, uint64(len(ns)))
	for i := range ns {
		b = appendNotice(b, &ns[i])
	}
	return b
}

func (d *dec) notices() []WriteNotice {
	n := d.count()
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]WriteNotice, n)
	for i := range out {
		out[i] = d.notice()
	}
	return out
}

func appendIntervals(b []byte, ivs []IntervalRec) []byte {
	b = binary.AppendUvarint(b, uint64(len(ivs)))
	for i := range ivs {
		iv := &ivs[i]
		b = binary.AppendVarint(b, int64(iv.Creator))
		b = binary.AppendVarint(b, int64(iv.Index))
		b = appendNotices(b, iv.Notices)
		b = appendInts(b, iv.VC)
	}
	return b
}

func (d *dec) intervals() []IntervalRec {
	n := d.count()
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]IntervalRec, n)
	for i := range out {
		out[i] = IntervalRec{
			Creator: d.int(),
			Index:   d.int(),
			Notices: d.notices(),
			VC:      d.ints(),
		}
	}
	return out
}

func appendDiffMsgs(b []byte, ds []DiffMsg) []byte {
	b = binary.AppendUvarint(b, uint64(len(ds)))
	for i := range ds {
		b = appendNotice(b, &ds[i].Notice)
		b = appendDiff(b, ds[i].Diff)
	}
	return b
}

func (d *dec) diffMsgs() []DiffMsg {
	n := d.count()
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]DiffMsg, n)
	for i := range out {
		out[i] = DiffMsg{Notice: d.notice(), Diff: d.diff()}
	}
	return out
}

func appendVersions(b []byte, vs []PageVersion) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for i := range vs {
		b = binary.AppendVarint(b, int64(vs[i].Page))
		b = binary.AppendUvarint(b, uint64(vs[i].Version))
	}
	return b
}

func (d *dec) versions() []PageVersion {
	n := d.count()
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]PageVersion, n)
	for i := range out {
		out[i] = PageVersion{Page: d.pageID(), Version: d.uint32()}
	}
	return out
}

func appendFloats(b []byte, vs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func (d *dec) floats() []float64 {
	n := d.count()
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.float64()
	}
	return out
}

func appendUint64s(b []byte, vs []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

func (d *dec) uint64s() []uint64 {
	n := d.count()
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.fixed64()
	}
	return out
}

func appendPageIDs(b []byte, ps []vm.PageID) []byte {
	b = binary.AppendUvarint(b, uint64(len(ps)))
	for _, p := range ps {
		b = binary.AppendVarint(b, int64(p))
	}
	return b
}

func (d *dec) pageIDs() []vm.PageID {
	n := d.count()
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]vm.PageID, n)
	for i := range out {
		out[i] = d.pageID()
	}
	return out
}

func appendCopysetRecs(b []byte, cs []CopysetRec) []byte {
	b = binary.AppendUvarint(b, uint64(len(cs)))
	for i := range cs {
		b = binary.AppendVarint(b, int64(cs[i].Page))
		b = binary.AppendVarint(b, int64(cs[i].Member))
	}
	return b
}

func (d *dec) copysetRecs() []CopysetRec {
	n := d.count()
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]CopysetRec, n)
	for i := range out {
		out[i] = CopysetRec{Page: d.pageID(), Member: d.int()}
	}
	return out
}

func appendMigrateRecs(b []byte, ms []MigrateRec) []byte {
	b = binary.AppendUvarint(b, uint64(len(ms)))
	for i := range ms {
		b = binary.AppendVarint(b, int64(ms[i].Page))
		b = binary.AppendVarint(b, int64(ms[i].OldHome))
		b = binary.AppendVarint(b, int64(ms[i].NewHome))
	}
	return b
}

func (d *dec) migrateRecs() []MigrateRec {
	n := d.count()
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]MigrateRec, n)
	for i := range out {
		out[i] = MigrateRec{Page: d.pageID(), OldHome: d.int(), NewHome: d.int()}
	}
	return out
}

func appendRedContrib(b []byte, r *RedContrib) []byte {
	if r == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = binary.AppendVarint(b, int64(r.Op))
	b = appendFloats(b, r.F)
	return appendUint64s(b, r.U)
}

func (d *dec) redContrib() *RedContrib {
	if !d.bool() || d.err != nil {
		return nil
	}
	return &RedContrib{Op: RedOp(d.varint()), F: d.floats(), U: d.uint64s()}
}

func appendRedResult(b []byte, r *RedResult) []byte {
	if r == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendFloats(b, r.F)
	return appendUint64s(b, r.U)
}

func (d *dec) redResult() *RedResult {
	if !d.bool() || d.err != nil {
		return nil
	}
	return &RedResult{F: d.floats(), U: d.uint64s()}
}

// Barrier Proto union tags. BarArrive/BarRelease carry a protocol-defined
// payload typed any; the tag disambiguates on the wire.
const (
	protoNil    = 0 // no payload
	protoLmw    = 1 // []IntervalRec (homeless family)
	protoBarArr = 2 // *BarArrivalBar
	protoBarRel = 3 // *BarReleaseBar
)

func appendBarArrivalBar(b []byte, a *BarArrivalBar) []byte {
	b = appendVersions(b, a.Versions)
	b = appendPageIDs(b, a.Written)
	b = appendCopysetRecs(b, a.CopysetNews)
	b = appendCopysetRecs(b, a.CopysetDrops)
	b = appendInts(b, a.PushDests)
	if a.IterEnd {
		return append(b, 1)
	}
	return append(b, 0)
}

func (d *dec) barArrivalBar() *BarArrivalBar {
	return &BarArrivalBar{
		Versions:     d.versions(),
		Written:      d.pageIDs(),
		CopysetNews:  d.copysetRecs(),
		CopysetDrops: d.copysetRecs(),
		PushDests:    d.ints(),
		IterEnd:      d.bool(),
	}
}

func appendBarReleaseBar(b []byte, r *BarReleaseBar) []byte {
	b = appendVersions(b, r.Versions)
	b = appendCopysetRecs(b, r.CopysetNews)
	b = appendCopysetRecs(b, r.CopysetDrops)
	b = appendMigrateRecs(b, r.Migrations)
	return binary.AppendVarint(b, int64(r.ExpBatches))
}

func (d *dec) barReleaseBar() *BarReleaseBar {
	return &BarReleaseBar{
		Versions:     d.versions(),
		CopysetNews:  d.copysetRecs(),
		CopysetDrops: d.copysetRecs(),
		Migrations:   d.migrateRecs(),
		ExpBatches:   d.int(),
	}
}

func appendProto(b []byte, p any) ([]byte, error) {
	switch v := p.(type) {
	case nil:
		return append(b, protoNil), nil
	case []IntervalRec:
		return appendIntervals(append(b, protoLmw), v), nil
	case *BarArrivalBar:
		return appendBarArrivalBar(append(b, protoBarArr), v), nil
	case *BarReleaseBar:
		return appendBarReleaseBar(append(b, protoBarRel), v), nil
	default:
		return b, fmt.Errorf("wire: unencodable barrier proto payload %T", p)
	}
}

func (d *dec) proto() any {
	switch tag := d.uvarint(); tag {
	case protoNil:
		return nil
	case protoLmw:
		return d.intervals()
	case protoBarArr:
		return d.barArrivalBar()
	case protoBarRel:
		return d.barReleaseBar()
	default:
		d.fail("unknown barrier proto tag %d", tag)
		return nil
	}
}

// badPayload reports a payload whose dynamic type does not match its kind.
func badPayload(kind int, data any) error {
	return fmt.Errorf("wire: kind %d: unexpected payload type %T", kind, data)
}

// AppendMessage appends the encoded payload of one message to buf.
// The payload's dynamic type must match the kind's message struct
// (KindShutdown, KindFlagSetAck and KindDoneRelease carry nil).
func AppendMessage(buf []byte, kind int, data any) ([]byte, error) {
	switch kind {
	case KindDiffReq:
		m, ok := data.(*DiffReq)
		if !ok {
			return buf, badPayload(kind, data)
		}
		return appendNotices(buf, m.Wants), nil
	case KindDiffRep:
		m, ok := data.(*DiffRep)
		if !ok {
			return buf, badPayload(kind, data)
		}
		return appendDiffMsgs(buf, m.Diffs), nil
	case KindPageReq:
		m, ok := data.(*PageReq)
		if !ok {
			return buf, badPayload(kind, data)
		}
		buf = binary.AppendVarint(buf, int64(m.Page))
		buf = binary.AppendVarint(buf, int64(m.Epoch))
		if m.NoSub {
			return append(buf, 1), nil
		}
		return append(buf, 0), nil
	case KindPageRep:
		m, ok := data.(*PageRep)
		if !ok {
			return buf, badPayload(kind, data)
		}
		buf = binary.AppendVarint(buf, int64(m.Page))
		buf = appendBytes(buf, m.Data)
		buf = binary.AppendUvarint(buf, uint64(m.Version))
		return appendInts(buf, m.Absorbed), nil
	case KindHomeFlush:
		m, ok := data.(*HomeFlush)
		if !ok {
			return buf, badPayload(kind, data)
		}
		buf = binary.AppendVarint(buf, int64(m.Epoch))
		return appendDiffMsgs(buf, m.Diffs), nil
	case KindHomeFlushAck:
		m, ok := data.(*HomeFlushAck)
		if !ok {
			return buf, badPayload(kind, data)
		}
		return appendVersions(buf, m.Versions), nil
	case KindUpdateFlush, KindLmwFlush:
		m, ok := data.(*UpdateFlush)
		if !ok {
			return buf, badPayload(kind, data)
		}
		buf = binary.AppendVarint(buf, int64(m.Epoch))
		return appendDiffMsgs(buf, m.Diffs), nil
	case KindBarArrive:
		m, ok := data.(*BarArrive)
		if !ok {
			return buf, badPayload(kind, data)
		}
		buf = binary.AppendVarint(buf, int64(m.From))
		buf = binary.AppendVarint(buf, int64(m.Site))
		buf = binary.AppendVarint(buf, int64(m.Seq))
		buf, err := appendProto(buf, m.Proto)
		if err != nil {
			return buf, err
		}
		return appendRedContrib(buf, m.Red), nil
	case KindBarRelease:
		m, ok := data.(*BarRelease)
		if !ok {
			return buf, badPayload(kind, data)
		}
		buf = binary.AppendVarint(buf, int64(m.Seq))
		buf, err := appendProto(buf, m.Proto)
		if err != nil {
			return buf, err
		}
		return appendRedResult(buf, m.Red), nil
	case KindUpdatesReady:
		m, ok := data.(*UpdatesReady)
		if !ok {
			return buf, badPayload(kind, data)
		}
		return binary.AppendVarint(buf, int64(m.Epoch)), nil
	case KindUpdateTimeout:
		m, ok := data.(*UpdateTimeout)
		if !ok {
			return buf, badPayload(kind, data)
		}
		return binary.AppendVarint(buf, int64(m.WaitSeq)), nil
	case KindHomePull:
		m, ok := data.(*HomePull)
		if !ok {
			return buf, badPayload(kind, data)
		}
		return binary.AppendVarint(buf, int64(m.Page)), nil
	case KindHomePullRep:
		m, ok := data.(*HomePullRep)
		if !ok {
			return buf, badPayload(kind, data)
		}
		buf = binary.AppendVarint(buf, int64(m.Page))
		buf = appendBytes(buf, m.Data)
		buf = binary.AppendUvarint(buf, uint64(m.Version))
		// Nonzero-prefix copyset words: small clusters (the common case)
		// pay one count byte plus one word, never the full four.
		nw := len(m.Copyset)
		for nw > 0 && m.Copyset[nw-1] == 0 {
			nw--
		}
		buf = binary.AppendUvarint(buf, uint64(nw))
		for _, w := range m.Copyset[:nw] {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		return buf, nil
	case KindLockAcq:
		m, ok := data.(*LockAcq)
		if !ok {
			return buf, badPayload(kind, data)
		}
		return appendLockAcq(buf, m), nil
	case KindLockFwd:
		m, ok := data.(*LockFwd)
		if !ok {
			return buf, badPayload(kind, data)
		}
		if m.Acq == nil {
			return buf, fmt.Errorf("wire: lock forward without acquire")
		}
		buf = appendLockAcq(buf, m.Acq)
		buf = binary.AppendVarint(buf, int64(m.Seq))
		return binary.AppendVarint(buf, int64(m.Pred)), nil
	case KindLockGrant:
		m, ok := data.(*LockGrant)
		if !ok {
			return buf, badPayload(kind, data)
		}
		buf = binary.AppendVarint(buf, int64(m.Lock))
		buf = binary.AppendVarint(buf, int64(m.Seq))
		return appendIntervals(buf, m.Intervals), nil
	case KindFlagSet:
		m, ok := data.(*FlagSet)
		if !ok {
			return buf, badPayload(kind, data)
		}
		buf = binary.AppendVarint(buf, int64(m.Flag))
		return appendIntervals(buf, m.Ivs), nil
	case KindFlagWait:
		m, ok := data.(*FlagWait)
		if !ok {
			return buf, badPayload(kind, data)
		}
		buf = binary.AppendVarint(buf, int64(m.Flag))
		buf = binary.AppendVarint(buf, int64(m.From))
		return appendInts(buf, m.VC), nil
	case KindFlagRelease:
		m, ok := data.(*FlagRelease)
		if !ok {
			return buf, badPayload(kind, data)
		}
		buf = binary.AppendVarint(buf, int64(m.Flag))
		return appendIntervals(buf, m.Ivs), nil
	case KindRetryTimer:
		m, ok := data.(*RetryTimer)
		if !ok {
			return buf, badPayload(kind, data)
		}
		return binary.AppendVarint(buf, m.Rid), nil
	case KindDone:
		m, ok := data.(*DoneMsg)
		if !ok {
			return buf, badPayload(kind, data)
		}
		return binary.AppendVarint(buf, int64(m.From)), nil
	case KindRestart:
		m, ok := data.(*RestartMsg)
		if !ok {
			return buf, badPayload(kind, data)
		}
		buf = binary.AppendVarint(buf, int64(m.Seq))
		return binary.AppendVarint(buf, int64(m.Missed)), nil
	case KindBarBundle:
		m, ok := data.(*BarBundle)
		if !ok {
			return buf, badPayload(kind, data)
		}
		buf = binary.AppendUvarint(buf, uint64(len(m.Rels)))
		for i := range m.Rels {
			r := &m.Rels[i]
			if r.Rel == nil {
				return buf, fmt.Errorf("wire: bundle entry without release")
			}
			buf = binary.AppendVarint(buf, int64(r.Node))
			buf = binary.AppendVarint(buf, r.Rid)
			buf = binary.AppendVarint(buf, int64(r.Size))
			buf = binary.AppendVarint(buf, int64(r.Rel.Seq))
			var err error
			buf, err = appendProto(buf, r.Rel.Proto)
			if err != nil {
				return buf, err
			}
			buf = appendRedResult(buf, r.Rel.Red)
		}
		return buf, nil
	case KindShutdown, KindFlagSetAck, KindDoneRelease:
		if data != nil {
			return buf, badPayload(kind, data)
		}
		return buf, nil
	default:
		return buf, fmt.Errorf("wire: unknown message kind %d", kind)
	}
}

func appendLockAcq(b []byte, a *LockAcq) []byte {
	b = binary.AppendVarint(b, int64(a.Lock))
	b = binary.AppendVarint(b, int64(a.From))
	return appendInts(b, a.VC)
}

func (d *dec) lockAcq() *LockAcq {
	return &LockAcq{Lock: d.int(), From: d.int(), VC: d.ints()}
}

// DecodeMessage decodes one payload of the given kind from b, which must
// contain exactly the payload (trailing bytes are an error). It returns
// the same pointer-to-struct shape AppendMessage accepts, never panics,
// and reports truncated or corrupt input as an error.
func DecodeMessage(kind int, b []byte) (any, error) {
	d := &dec{b: b}
	var out any
	switch kind {
	case KindDiffReq:
		out = &DiffReq{Wants: d.notices()}
	case KindDiffRep:
		out = &DiffRep{Diffs: d.diffMsgs()}
	case KindPageReq:
		out = &PageReq{Page: d.pageID(), Epoch: d.int(), NoSub: d.bool()}
	case KindPageRep:
		out = &PageRep{Page: d.pageID(), Data: d.bytes(), Version: d.uint32(), Absorbed: d.ints()}
	case KindHomeFlush:
		out = &HomeFlush{Epoch: d.int(), Diffs: d.diffMsgs()}
	case KindHomeFlushAck:
		out = &HomeFlushAck{Versions: d.versions()}
	case KindUpdateFlush, KindLmwFlush:
		out = &UpdateFlush{Epoch: d.int(), Diffs: d.diffMsgs()}
	case KindBarArrive:
		out = &BarArrive{From: d.int(), Site: d.int(), Seq: d.int(), Proto: d.proto(), Red: d.redContrib()}
	case KindBarRelease:
		out = &BarRelease{Seq: d.int(), Proto: d.proto(), Red: d.redResult()}
	case KindUpdatesReady:
		out = &UpdatesReady{Epoch: d.int()}
	case KindUpdateTimeout:
		out = &UpdateTimeout{WaitSeq: d.int()}
	case KindHomePull:
		out = &HomePull{Page: d.pageID()}
	case KindHomePullRep:
		out = &HomePullRep{Page: d.pageID(), Data: d.bytes(), Version: d.uint32(), Copyset: d.copyset()}
	case KindLockAcq:
		out = d.lockAcq()
	case KindLockFwd:
		out = &LockFwd{Acq: d.lockAcq(), Seq: d.int(), Pred: d.int()}
	case KindLockGrant:
		out = &LockGrant{Lock: d.int(), Seq: d.int(), Intervals: d.intervals()}
	case KindFlagSet:
		out = &FlagSet{Flag: d.int(), Ivs: d.intervals()}
	case KindFlagWait:
		out = &FlagWait{Flag: d.int(), From: d.int(), VC: d.ints()}
	case KindFlagRelease:
		out = &FlagRelease{Flag: d.int(), Ivs: d.intervals()}
	case KindRetryTimer:
		out = &RetryTimer{Rid: d.varint()}
	case KindDone:
		out = &DoneMsg{From: d.int()}
	case KindRestart:
		out = &RestartMsg{Seq: d.int(), Missed: d.int()}
	case KindBarBundle:
		n := d.count()
		rels := make([]BundleRel, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			rels = append(rels, BundleRel{
				Node: d.int(),
				Rid:  d.varint(),
				Size: d.int(),
				Rel:  &BarRelease{Seq: d.int(), Proto: d.proto(), Red: d.redResult()},
			})
		}
		out = &BarBundle{Rels: rels}
	case KindShutdown, KindFlagSetAck, KindDoneRelease:
		out = nil
	default:
		return nil, fmt.Errorf("wire: unknown message kind %d", kind)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("wire: kind %d: %d trailing bytes", kind, len(d.b))
	}
	return out, nil
}
