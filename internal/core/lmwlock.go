package core

import (
	"sort"

	"godsm/internal/netsim"
	"godsm/internal/sim"
	"godsm/internal/trace"
	"godsm/internal/vm"
)

// Lock synchronization for the homeless lmw protocols. This is the
// machinery the paper holds against them: "Since lmw supports locks,
// flags, and other non-global synchronization types, as well as programs
// with dynamic sharing behavior, consistency information has long
// lifetimes, and can not be discarded without explicit garbage
// collection."
//
// Locks are distributed tokens. Each lock has a static manager (lock mod
// procs) that remembers the last owner; acquires are forwarded along the
// ownership chain, and the grant carries every interval (write notices)
// the granter has seen that the requester has not — the lazy-release-
// consistency transfer. The home-based bar protocols reject locks by
// design: the paper builds them "by limiting the protocol to codes that
// only use barrier synchronization".

// lockToken is a node's local view of one lock.
type lockToken struct {
	hasToken bool
	inUse    bool
	// episode is the chain sequence number of the acquire our current
	// token claim corresponds to (0 for the manager's initial claim). An
	// owner may appear at several positions of the ownership chain at
	// once, each position with its own incoming forward; the episode tells
	// which of them the token in hand must serve next.
	episode int
	// pending parks forwarded acquires by their predecessor episode. Only
	// pending[episode] may be granted: a forward for a later episode of
	// ours arriving first (its predecessor's forward was lost and is still
	// being retransmitted) must wait, or the token would skip ahead of the
	// chain and strand every requester between.
	pending map[int]*netsim.Packet
}

// lockChain is the manager-side record: whom to forward the next acquire
// to, and the chain sequence numbering that keeps grants in chain order
// under retransmission.
type lockChain struct {
	lastOwner int
	lastSeq   int // chain seq of lastOwner's acquire (0 = initial claim)
	nextSeq   int
}

// lockState returns (creating if needed) the local token state. The
// manager node starts out holding the token; under a crash plan the
// manager is the lock's surviving syncHome, which never moves backward
// (demotion only advances it cyclically), so a lazy init is stable.
func (l *lmw) lockState(lock int) *lockToken {
	st, ok := l.locks[lock]
	if !ok {
		n := l.n
		st = &lockToken{
			hasToken: n.id == n.clu.cp.syncHome(lock, n.clu.cfg.Procs, n.barSeq-1),
			pending:  make(map[int]*netsim.Packet),
		}
		l.locks[lock] = st
	}
	return st
}

func (l *lmw) chainState(lock int) *lockChain {
	cs, ok := l.lockMgr[lock]
	if !ok {
		n := l.n
		cs = &lockChain{lastOwner: n.clu.cp.syncHome(lock, n.clu.cfg.Procs, n.barSeq-1), nextSeq: 1}
		l.lockMgr[lock] = cs
	}
	return cs
}

// acquire implements Proc.Acquire for the lmw protocols: request the
// token through the manager, then apply the granted consistency
// information (invalidations for every interval we had not seen).
func (l *lmw) acquire(lock int) {
	n := l.n
	n.flush()
	n.ctr.LockAcquires++
	n.trc(trace.LockAcquire, -1, int64(lock))
	mgr := n.clu.cp.syncHome(lock, n.clu.cfg.Procs, n.barSeq-1)
	req := &lockAcq{Lock: lock, From: n.id, VC: append([]int(nil), l.vc...)}
	n.sendRequest(mgr, mkLockAcq, 8+8*len(req.VC), req)
	pkt := n.awaitReply()
	if pkt.Kind != mkLockGrant {
		n.fatal("lmw: expected lock grant, got kind %d", pkt.Kind)
	}
	g := pkt.Data.(*lockGrant)
	for _, iv := range g.Intervals {
		l.applyInterval(iv, false)
	}
	st := l.lockState(lock)
	st.hasToken = true
	st.inUse = true
	st.episode = g.Seq
}

// release implements Proc.Release: close the current interval (the
// critical section's modifications become visible to the next acquirer)
// and pass the token along if someone is waiting.
func (l *lmw) release(lock int) {
	n := l.n
	n.flush()
	st := l.lockState(lock)
	if !st.inUse {
		n.fatal("lmw: release of lock %d not held", lock)
	}
	l.endInterval(false)
	st.inUse = false
	l.maybeGrant(n.compute, st)
}

// handleLockAcq runs at the lock's manager: forward the request to the
// last owner and chain the requester behind it. Under fault injection a
// replayed acquire re-fires the same forward (the chain already advanced),
// so a lost forward or grant is always recoverable via the origin's
// retransmissions.
func (l *lmw) handleLockAcq(pkt *netsim.Packet) {
	a := pkt.Data.(*lockAcq)
	cs := l.chainState(a.Lock)
	f := &lockFwd{Acq: a, Seq: cs.nextSeq, Pred: cs.lastSeq}
	dest := cs.lastOwner
	cs.lastOwner, cs.lastSeq = a.From, cs.nextSeq
	cs.nextSeq++
	l.forwardLock(dest, f, pkt)
	if e := l.n.dedupEntryFor(pkt); e != nil {
		e.refire = func() { l.forwardLock(dest, f, pkt) }
	}
}

// forwardLock relays an acquire to the owner under the original request's
// identity, so the owner's dedup and the eventual grant settle the
// origin's retransmission tracking.
func (l *lmw) forwardLock(dest int, f *lockFwd, pkt *netsim.Packet) {
	n := l.n
	if dest != n.id {
		n.service.Advance(n.clu.cm.SendCPU)
	}
	n.clu.net.Send(n.service, dest, netsim.PortService,
		&netsim.Packet{Kind: mkLockFwd, Size: 8 + 8*len(f.Acq.VC), Rid: pkt.Rid, Orig: pkt.Orig, Data: f})
}

// handleLockFwd runs at the (last) owner: park the forward under its
// predecessor episode and grant it if the token is idle here for exactly
// that episode. A forward for a later episode of ours — possible only when
// its predecessor's forward was lost and is still being retransmitted —
// waits for the chain to catch up.
func (l *lmw) handleLockFwd(pkt *netsim.Packet) {
	n := l.n
	f := pkt.Data.(*lockFwd)
	st := l.lockState(f.Acq.Lock)
	if f.Pred < st.episode {
		return // stale replay of an episode already served
	}
	st.pending[f.Pred] = pkt
	l.maybeGrant(n.service, st)
}

// maybeGrant passes the token to the current episode's successor, if the
// token is idle here and that successor's forward has arrived.
func (l *lmw) maybeGrant(p *sim.Proc, st *lockToken) {
	if !st.hasToken || st.inUse {
		return
	}
	pkt := st.pending[st.episode]
	if pkt == nil {
		return
	}
	delete(st.pending, st.episode)
	st.hasToken = false
	l.grantLock(p, pkt)
}

// grantLock sends the token plus every interval the requester is missing.
// p is the execution context: the service process for idle-token grants,
// the compute process when handing off at a release.
func (l *lmw) grantLock(p *sim.Proc, pkt *netsim.Packet) {
	n := l.n
	f := pkt.Data.(*lockFwd)
	a := f.Acq
	var ivs []intervalRec
	creators := make([]int, 0, len(l.log))
	for c := range l.log {
		creators = append(creators, c)
	}
	sort.Ints(creators)
	for _, c := range creators {
		if c == a.From {
			continue
		}
		for _, rec := range l.log[c] {
			if rec.Index > a.VC[c] {
				ivs = append(ivs, rec)
			}
		}
	}
	g := &lockGrant{Lock: a.Lock, Seq: f.Seq, Intervals: ivs}
	// Through the locked sink fan-out, not a sink directly: under a real
	// transport grants fire concurrently with other nodes' emissions.
	n.emitTrace(p.Now(), trace.LockGrant, a.From, int64(a.Lock))
	if a.From != n.id {
		p.Advance(sim.Duration(n.clu.cm.SendCPU))
	}
	gpkt := &netsim.Packet{Kind: mkLockGrant, Size: 8 + sizeIntervals(ivs), Reply: true, Rid: pkt.Rid, Data: g}
	n.recordReply(pkt, a.From, netsim.PortCompute, gpkt)
	n.clu.net.Send(p, a.From, netsim.PortCompute, gpkt)
}

// --- garbage collection -------------------------------------------------

// maybeGC implements the explicit garbage collection homeless protocols
// need (Config.LmwGCBarriers). At every k-th barrier each node validates
// all of its pending pages, so no future fault can name an old diff; the
// diff cache and interval logs covered by the snapshot are dropped one
// barrier later, after every peer's validation requests have been served.
func (l *lmw) maybeGC(k int) {
	n := l.n
	if l.gcSnap != nil {
		// Phase 2: the validation sweep happened a barrier ago; every
		// peer has fetched what it needed, old state can go.
		removed := int64(0)
		for nt := range l.cache {
			if nt.Epoch <= l.gcSnap[nt.Creator] {
				delete(l.cache, nt)
				removed++
			}
		}
		for c, recs := range l.log {
			keep := recs[:0]
			for _, rec := range recs {
				if rec.Index > l.gcSnap[c] {
					keep = append(keep, rec)
				} else {
					delete(l.ivVC, ivKey(c, rec.Index))
				}
			}
			l.log[c] = keep
		}
		n.ctr.DiffsGCed += removed
		l.gcSnap = nil
	}
	if n.barSeq%k != 0 {
		return
	}
	// Phase 1: bring every invalid page up to date. This is the expense
	// that makes GC rare in real systems: a burst of validation traffic.
	var pages []int
	for pg := range l.pending {
		pages = append(pages, int(pg))
	}
	sort.Ints(pages)
	for _, pg := range pages {
		l.validate(vm.PageID(pg))
	}
	l.gcSnap = append([]int(nil), l.vc...)
}
