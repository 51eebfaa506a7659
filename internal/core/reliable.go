package core

import (
	"godsm/internal/netsim"
	"godsm/internal/sim"
	"godsm/internal/trace"
)

// Reliability layer: when a FaultPlan makes the interconnect lossy, every
// acknowledged exchange (diff request, page request, home flush, lock
// acquire, flag set, barrier arrival) becomes a tracked request — stamped
// with a per-origin monotonic request id, retransmitted on timeout with
// exponential backoff — and every service handler becomes idempotent:
// replayed requests are suppressed and answered from a cached reply (or by
// re-firing the pending side effect, e.g. a lock forward). With faults off
// (node.rel == nil) every entry point below is a no-op, so the reliable
// path keeps its exact legacy behavior and cost.

// maxSendAttempts bounds retransmission: a request still unanswered after
// this many sends aborts the run (the plan partitioned the network).
const maxSendAttempts = 64

// retryTimeout is the base retransmission timeout; it doubles per retry,
// up to backoffCap times the base.
const retryTimeout = 5 * sim.Millisecond

// backoffCap bounds the exponential backoff multiplier on retryTimeout.
const backoffCap = 128

// dedupWindow is how many recent completed requests per origin a service
// remembers for replay suppression. Entries still pending (e.g. a parked
// lock forward) are never evicted.
const dedupWindow = 256

// reliability is one node's fault-tolerance state; nil when faults are off.
type reliability struct {
	nextRid     int64
	outstanding map[int64]*pendingReq // requester side: rid -> in-flight
	seen        map[int]*dedupHistory // service side: origin -> history
	seenFlush   map[uint64]bool       // (origin, epoch) of update flushes
	// updEpochDone is the newest epoch whose banked updates were already
	// consumed; late flushes at or below it are dropped as stale.
	updEpochDone int
}

func newReliability() *reliability {
	return &reliability{
		outstanding:  make(map[int64]*pendingReq),
		seen:         make(map[int]*dedupHistory),
		seenFlush:    make(map[uint64]bool),
		updEpochDone: -1,
	}
}

// pendingReq is one tracked request awaiting its reply.
type pendingReq struct {
	dst      int
	kind     int
	size     int
	data     any
	attempts int
	timeout  sim.Duration // next retransmission delay (doubles per retry)
}

// dedupKey identifies one tracked request at a service. The kind is part
// of the key because a forwarded request (mkLockFwd) travels under the
// original acquire's (origin, rid) and both may be served by one node.
type dedupKey struct {
	rid  int64
	kind int
}

// dedupEntry is a service's memory of one tracked request.
type dedupEntry struct {
	done bool // a reply was produced (cached in pkt)
	// refire, for requests whose effect is a forward rather than a reply,
	// re-sends that side effect when the request is replayed.
	refire func()
	pkt    *netsim.Packet // cached reply, re-sent to dst/port on replay
	dst    int
	port   netsim.Port
}

// dedupHistory is the per-origin replay record, evicted FIFO past
// dedupWindow completed entries.
type dedupHistory struct {
	entries map[dedupKey]*dedupEntry
	order   []dedupKey
}

func (h *dedupHistory) add(k dedupKey, e *dedupEntry) {
	h.entries[k] = e
	h.order = append(h.order, k)
	h.compact()
}

// compact drops the oldest completed entries once the history has grown
// well past the retention window. Pending entries (parked lock forwards,
// flag waiters) are kept regardless of age: evicting one would let a
// replay re-run a non-idempotent handler.
func (h *dedupHistory) compact() {
	if len(h.order) <= 2*dedupWindow {
		return
	}
	keepFrom := len(h.order) - dedupWindow
	kept := make([]dedupKey, 0, dedupWindow)
	for i, k := range h.order {
		if e := h.entries[k]; i >= keepFrom || (e != nil && !e.done) {
			kept = append(kept, k)
		} else {
			delete(h.entries, k)
		}
	}
	h.order = kept
}

func (r *reliability) history(origin int) *dedupHistory {
	h := r.seen[origin]
	if h == nil {
		h = &dedupHistory{entries: make(map[dedupKey]*dedupEntry)}
		r.seen[origin] = h
	}
	return h
}

// --- requester side -------------------------------------------------------

// trackRequest stamps an outbound request with a fresh rid and arms its
// retransmission timer. No-op with faults off. Local (same-node) requests
// are tracked too: their own delivery cannot be lost, but a service
// handler may relay them onward over the faulty network (a lock manager
// forwarding its own acquire), and that relay inherits the rid — the
// origin's retransmission then re-fires the relay, and the relay's
// duplicates dedup at the far end. Spurious local retransmissions are
// absorbed by the service-side dedup.
func (n *node) trackRequest(dst int, pkt *netsim.Packet) {
	rel := n.rel
	if rel == nil {
		return
	}
	rel.nextRid++
	pkt.Rid = rel.nextRid
	pkt.Orig = n.id
	pr := &pendingReq{
		dst:     dst,
		kind:    pkt.Kind,
		size:    pkt.Size,
		data:    pkt.Data,
		timeout: retryTimeout,
	}
	rel.outstanding[pkt.Rid] = pr
	n.armRetry(pkt.Rid, pr.timeout)
}

// armRetry schedules a local retransmission alarm for rid after d.
func (n *node) armRetry(rid int64, d sim.Duration) {
	n.compute.Send(n.compute.ID(), d, &netsim.Packet{
		Kind: mkRetryTimer, FromNode: n.id, Data: &retryTimer{Rid: rid},
	})
}

// retryFire handles one retransmission alarm on the compute path.
func (n *node) retryFire(pkt *netsim.Packet) {
	rid := pkt.Data.(*retryTimer).Rid
	pr := n.rel.outstanding[rid]
	if pr == nil {
		return // answered since the alarm was armed
	}
	pr.attempts++
	if pr.attempts >= maxSendAttempts {
		n.fatal("request kind %d to node %d unanswered after %d attempts", pr.kind, pr.dst, pr.attempts)
		return
	}
	n.ctr.Retransmits++
	n.trc(trace.Retransmit, -1, int64(pr.kind))
	if cp := n.clu.cp; cp != nil && pr.kind == mkFlagSet && cp.demoted(pr.dst, n.barSeq-1) {
		// A flag set is the one tracked request that can be in flight at a
		// crash cut (it never blocks its sender); if the manager died with
		// it, re-aim the retransmission at the re-elected manager, whose
		// adoption path merges it one-shot with any checkpointed set.
		pr.dst = cp.syncHome(pr.data.(*flagSet).Flag, n.clu.cfg.Procs, n.barSeq-1)
	}
	n.osCharge(n.clu.cm.SendCPU)
	n.clu.net.Send(n.compute, pr.dst, netsim.PortService,
		&netsim.Packet{Kind: pr.kind, Size: pr.size, Rid: rid, Orig: n.id, Data: pr.data})
	if pr.timeout < backoffCap*retryTimeout {
		pr.timeout *= 2
	}
	n.armRetry(rid, pr.timeout)
}

// clearOutstanding retires the tracked request a reply answers. It reports
// whether the reply is the first (deliver) or a duplicate (suppress);
// untracked replies always deliver.
func (n *node) clearOutstanding(pkt *netsim.Packet) bool {
	rel := n.rel
	if rel == nil {
		return true
	}
	if _, ok := rel.outstanding[pkt.Rid]; ok {
		delete(rel.outstanding, pkt.Rid)
		return true
	}
	return false
}

// filterCompute intercepts reliability traffic on the compute port:
// retransmission alarms, flag-set acks, and duplicate replies. It reports
// whether pkt was consumed.
func (n *node) filterCompute(pkt *netsim.Packet) bool {
	if n.rel == nil {
		return false
	}
	switch pkt.Kind {
	case mkRetryTimer:
		n.retryFire(pkt)
		return true
	case mkFlagSetAck:
		n.clearOutstanding(pkt)
		return true
	}
	if pkt.Reply && pkt.Rid != 0 && !n.clearOutstanding(pkt) {
		n.ctr.DupSuppressed++
		n.trc(trace.DupSuppress, -1, int64(pkt.Kind))
		return true
	}
	return false
}

// --- service side ---------------------------------------------------------

// dedupServe suppresses replayed tracked requests at the service entry. A
// replay of a completed request re-sends the cached reply; a replay of a
// pending one re-fires its side effect (if any). First receipts register a
// pending entry and pass through to the handler.
func (n *node) dedupServe(pkt *netsim.Packet) bool {
	rel := n.rel
	if rel == nil || pkt.Rid == 0 {
		return false
	}
	h := rel.history(pkt.Orig)
	k := dedupKey{rid: pkt.Rid, kind: pkt.Kind}
	if e, ok := h.entries[k]; ok {
		n.ctr.DupSuppressed++
		n.trcSvc(trace.DupSuppress, -1, int64(pkt.Kind))
		if e.done && e.pkt != nil {
			if e.dst != n.id {
				n.service.Advance(n.clu.cm.SendCPU)
			}
			n.clu.net.Send(n.service, e.dst, e.port, e.pkt)
		} else if e.refire != nil {
			e.refire()
		}
		return true
	}
	h.add(k, &dedupEntry{})
	return false
}

// dedupEntryFor returns the service's entry for a tracked request, so a
// handler can attach a refire action; nil for untracked requests.
func (n *node) dedupEntryFor(pkt *netsim.Packet) *dedupEntry {
	rel := n.rel
	if rel == nil || pkt.Rid == 0 {
		return nil
	}
	return rel.history(pkt.Orig).entries[dedupKey{rid: pkt.Rid, kind: pkt.Kind}]
}

// recordReply caches the reply produced for a tracked request, completing
// its dedup entry so replays are answered without re-running the handler.
func (n *node) recordReply(req *netsim.Packet, dst int, port netsim.Port, pkt *netsim.Packet) {
	rel := n.rel
	if rel == nil || req.Rid == 0 {
		return
	}
	h := rel.history(req.Orig)
	k := dedupKey{rid: req.Rid, kind: req.Kind}
	e, ok := h.entries[k]
	if !ok {
		e = &dedupEntry{}
		h.add(k, e)
	}
	e.done = true
	e.refire = nil
	e.pkt = pkt
	e.dst = dst
	e.port = port
}

// dupFlush suppresses duplicated unacknowledged update flushes. Writers
// send at most one flush batch per (destination, epoch), so the pair
// identifies a batch exactly.
func (n *node) dupFlush(from, epoch int) bool {
	rel := n.rel
	if rel == nil {
		return false
	}
	key := uint64(from)<<32 | uint64(uint32(epoch))
	if rel.seenFlush[key] {
		n.ctr.DupSuppressed++
		n.trcSvc(trace.DupSuppress, -1, int64(epoch))
		return true
	}
	rel.seenFlush[key] = true
	return false
}
