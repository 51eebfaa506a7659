package core

import (
	"fmt"

	"godsm/internal/sim"
)

// Proc is the application-facing handle to one DSM node. Application
// bodies are SPMD: the same body runs on every node and must perform
// identical Alloc, Barrier, Reduce and IterationBoundary sequences.
type Proc struct {
	n *node
}

// ID returns this node's rank, in [0, NumProcs).
func (p *Proc) ID() int { return p.n.id }

// NumProcs returns the cluster size.
func (p *Proc) NumProcs() int { return p.n.clu.cfg.Procs }

// Now returns the node's current virtual time.
func (p *Proc) Now() sim.Time { return p.n.compute.Now() }

// Charge accounts d of useful application computation. Accessors do not
// charge compute time themselves; applications model their arithmetic cost
// explicitly (typically once per row or per block).
func (p *Proc) Charge(d sim.Duration) { p.n.charge(d) }

// Alloc reserves n bytes of the shared segment (8-byte aligned) and
// returns the base offset. Allocation is a deterministic bump pointer, so
// identical SPMD call sequences yield identical layouts on every node.
func (p *Proc) Alloc(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("core: Alloc(%d)", n))
	}
	off := (p.n.allocOff + 7) &^ 7
	if off+n > len(p.n.as.Mem) {
		panic(fmt.Sprintf("core: shared segment exhausted: want %d at %d, have %d", n, off, len(p.n.as.Mem)))
	}
	p.n.allocOff = off + n
	return off
}

// AllocPageAligned is Alloc rounded up to a page boundary, for data whose
// false sharing the application wants to avoid.
func (p *Proc) AllocPageAligned(n int) int {
	ps := p.n.as.PageSize()
	p.n.allocOff = (p.n.allocOff + ps - 1) &^ (ps - 1)
	return p.Alloc(n)
}

// Barrier performs one global barrier episode.
func (p *Proc) Barrier() { p.n.barrier(nil) }

// Reduce performs a barrier carrying a floating-point reduction and
// returns the combined values. Contributions are combined in node order,
// so results are deterministic.
func (p *Proc) Reduce(op RedOp, vals []float64) []float64 {
	if op == RedXor {
		panic("core: RedXor takes uint64 contributions; use ReduceXor")
	}
	res := p.n.barrier(&redContrib{Op: op, F: append([]float64(nil), vals...)})
	return res.F
}

// ReduceXor performs a barrier carrying an exclusive-or reduction over
// uint64 values, the engine's checksum primitive.
func (p *Proc) ReduceXor(vals []uint64) []uint64 {
	res := p.n.barrier(&redContrib{Op: RedXor, U: append([]uint64(nil), vals...)})
	return res.U
}

// Acquire takes the given lock, blocking until the previous holder's
// release. Only the homeless lmw protocols support locks; the home-based
// bar protocols are barrier-only by design and abort. Under ProtoSeq
// locks are no-ops (synchronization nulled out).
func (p *Proc) Acquire(lock int) {
	if lock < 0 {
		panic("core: negative lock id")
	}
	if p.n.clu.seq {
		return
	}
	lk, ok := p.n.proto.(locker)
	if !ok {
		p.n.fatal("%v is barrier-only: locks are not supported", p.n.clu.cfg.Protocol)
	}
	lk.acquire(lock)
}

// Release releases a lock taken with Acquire, making the critical
// section's modifications visible to the next acquirer (lazy release
// consistency).
func (p *Proc) Release(lock int) {
	if p.n.clu.seq {
		return
	}
	lk, ok := p.n.proto.(locker)
	if !ok {
		p.n.fatal("%v is barrier-only: locks are not supported", p.n.clu.cfg.Protocol)
	}
	lk.release(lock)
}

// SetFlag sets a one-shot flag, releasing every current and future
// WaitFlag on it. The set is a release: waiters acquire everything that
// happened before it. lmw protocols only; no-op under ProtoSeq.
func (p *Proc) SetFlag(flag int) {
	if flag < 0 {
		panic("core: negative flag id")
	}
	if p.n.clu.seq {
		return
	}
	f, ok := p.n.proto.(flagger)
	if !ok {
		p.n.fatal("%v is barrier-only: flags are not supported", p.n.clu.cfg.Protocol)
	}
	f.setFlag(flag)
}

// WaitFlag blocks until the flag is set (an acquire of the setter's
// modifications). lmw protocols only; no-op under ProtoSeq — sequential
// programs must therefore order their own set-before-wait.
func (p *Proc) WaitFlag(flag int) {
	if p.n.clu.seq {
		return
	}
	f, ok := p.n.proto.(flagger)
	if !ok {
		p.n.fatal("%v is barrier-only: flags are not supported", p.n.clu.cfg.Protocol)
	}
	f.waitFlag(flag)
}

// IterationBoundary marks the end of one outer (time-step) iteration. The
// protocols key their adaptive machinery to it: runtime home migration
// triggers at the first boundary, overdrive (bar-s/bar-m) engages after
// the second.
func (p *Proc) IterationBoundary() { p.n.iterationBoundary() }

// StartMeasure opens the statistics window. Call it immediately after a
// barrier (typically at the top of a steady-state iteration) so all nodes'
// windows open at the same point; it deliberately performs no barrier of
// its own, because an extra barrier would perturb the barrier-site
// structure the overdrive protocols key their predictions to. The paper
// starts timing "only after the applications have reached a steady state
// (and after all page home assignments occur)".
func (p *Proc) StartMeasure() {
	p.n.flush()
	p.n.snapshotStart()
}

// StopMeasure closes the statistics window. Like StartMeasure it performs
// no barrier; call it right after the final measured barrier.
func (p *Proc) StopMeasure() {
	p.n.flush()
	p.n.snapshotStop()
}

// SetResult records the node's result checksum; the engine verifies all
// nodes agree and surfaces the value in the Report.
func (p *Proc) SetResult(v uint64) {
	p.n.result = v
	p.n.hasRes = true
}

// PageSize returns the protection granularity in bytes.
func (p *Proc) PageSize() int { return p.n.as.PageSize() }
