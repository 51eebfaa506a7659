package main

import (
	"sync"
	"time"

	"godsm/internal/trace"
)

// hostSink is the traced run's trace.Sink. It stamps barrier arrivals and
// releases with the host clock, which the virtual-clock event times cannot
// give, and tallies diff creations. Under the realtime kernel nodes emit
// concurrently, hence the lock.
type hostSink struct {
	mu        sync.Mutex
	t0        time.Time
	arrived   []time.Duration // per node: its pending barrier arrival
	waitsMs   []float64       // per (node, barrier): arrival to release
	releases  []time.Duration // node 0's barrier releases
	diffs     int64
	diffBytes int64
}

func newHostSink(procs int) *hostSink {
	return &hostSink{t0: time.Now(), arrived: make([]time.Duration, procs)}
}

func (s *hostSink) Emit(e trace.Event) {
	switch e.Kind {
	case trace.BarrierArrive, trace.BarrierRelease, trace.DiffCreate:
	default:
		return
	}
	now := time.Since(s.t0)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case trace.BarrierArrive:
		s.arrived[e.Node] = now
	case trace.BarrierRelease:
		s.waitsMs = append(s.waitsMs, float64(now-s.arrived[e.Node])/1e6)
		if e.Node == 0 {
			s.releases = append(s.releases, now)
		}
	case trace.DiffCreate:
		s.diffs++
		s.diffBytes += e.Arg
	}
}

// epochsMs returns the host time between node 0's consecutive barrier
// releases.
func (s *hostSink) epochsMs() []float64 {
	out := make([]float64, 0, len(s.releases))
	for i := 1; i < len(s.releases); i++ {
		out = append(out, float64(s.releases[i]-s.releases[i-1])/1e6)
	}
	return out
}
