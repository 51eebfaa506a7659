package core

import (
	"testing"

	"godsm/internal/trace"
)

// TestTraceConsistentWithCounters runs the stencil with tracing attached
// and cross-checks the event stream against the run's counters.
func TestTraceConsistentWithCounters(t *testing.T) {
	for _, proto := range []ProtocolKind{ProtoLmwU, ProtoBarU, ProtoBarM} {
		log := trace.New(1 << 20)
		cfg := stencilConfig(4, proto)
		cfg.Sinks = []trace.Sink{log}
		r, err := Run(cfg, miniStencil(64, 128, 8, 5))
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		sum := log.Summary()
		// Trace covers the whole run, counters only the window, so trace
		// counts must dominate.
		if int64(sum[trace.Segv]) < r.Total.Segvs {
			t.Errorf("%v: %d segv events < %d counted", proto, sum[trace.Segv], r.Total.Segvs)
		}
		if int64(sum[trace.Mprotect]) < r.Total.Mprotects {
			t.Errorf("%v: %d mprotect events < %d counted", proto, sum[trace.Mprotect], r.Total.Mprotects)
		}
		if int64(sum[trace.Twin]) < r.Total.Twins {
			t.Errorf("%v: %d twin events < %d counted", proto, sum[trace.Twin], r.Total.Twins)
		}
		if sum[trace.BarrierArrive] != sum[trace.BarrierRelease] {
			t.Errorf("%v: %d arrivals vs %d releases", proto, sum[trace.BarrierArrive], sum[trace.BarrierRelease])
		}
		if proto == ProtoBarM && sum[trace.OverdriveOn] != 4 {
			t.Errorf("bar-m: %d overdrive-on events, want one per node", sum[trace.OverdriveOn])
		}
		// Events are recorded in global simulation order: timestamps never
		// regress per node.
		last := map[int]int64{}
		for _, e := range log.Events() {
			if int64(e.T) < last[e.Node] {
				t.Fatalf("%v: time regressed for node %d", proto, e.Node)
			}
			last[e.Node] = int64(e.T)
		}
	}
}

// TestTraceLockEvents checks the lock kinds appear for a lock workload.
func TestTraceLockEvents(t *testing.T) {
	log := trace.New(1 << 16)
	cfg := lockCfg(3, ProtoLmwI)
	cfg.Sinks = []trace.Sink{log}
	body := func(p *Proc) {
		c := p.AllocF64(1)
		p.Barrier()
		for i := 0; i < 5; i++ {
			p.Acquire(2)
			c.Set(0, c.Get(0)+1)
			p.Release(2)
		}
		p.Barrier()
		p.SetResult(uint64(c.Get(0)))
	}
	if _, err := Run(cfg, body); err != nil {
		t.Fatal(err)
	}
	sum := log.Summary()
	if sum[trace.LockAcquire] != 15 {
		t.Errorf("lock-acq events = %d, want 15", sum[trace.LockAcquire])
	}
	if sum[trace.LockGrant] != 15 {
		t.Errorf("lock-grant events = %d, want 15", sum[trace.LockGrant])
	}
}
