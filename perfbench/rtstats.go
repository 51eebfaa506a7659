package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
)

// rtSnap is a point-in-time reading of the Go runtime's cumulative
// counters.
type rtSnap struct {
	gcCPU, totalCPU, mutexWait float64 // seconds
	gcCycles                   uint64
	mallocs, allocBytes        uint64
	schedLat                   []uint64 // /sched/latencies counts
	schedBuckets               []float64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h := s[4].Value.Float64Histogram()
	return rtSnap{
		gcCPU:        s[0].Value.Float64(),
		totalCPU:     s[1].Value.Float64(),
		mutexWait:    s[2].Value.Float64(),
		gcCycles:     s[3].Value.Uint64(),
		mallocs:      ms.Mallocs,
		allocBytes:   ms.TotalAlloc,
		schedLat:     append([]uint64(nil), h.Counts...),
		schedBuckets: h.Buckets,
	}
}

// rtDelta is the runtime activity between two snapshots.
type rtDelta struct {
	gcCPU, totalCPU, mutexWait float64
	gcCycles, mallocs, allocs  uint64
	schedLat                   []uint64
	schedBuckets               []float64
}

func (a rtSnap) to(b rtSnap) rtDelta {
	d := rtDelta{
		gcCPU:        b.gcCPU - a.gcCPU,
		totalCPU:     b.totalCPU - a.totalCPU,
		mutexWait:    b.mutexWait - a.mutexWait,
		gcCycles:     b.gcCycles - a.gcCycles,
		mallocs:      b.mallocs - a.mallocs,
		allocs:       b.allocBytes - a.allocBytes,
		schedLat:     make([]uint64, len(b.schedLat)),
		schedBuckets: b.schedBuckets,
	}
	for i := range b.schedLat {
		d.schedLat[i] = b.schedLat[i] - a.schedLat[i]
	}
	return d
}

// histPercentile returns the upper bound of the histogram bucket holding
// the p-th percentile of counts (the lower bound for the open top bucket),
// or 0 for an empty histogram.
func histPercentile(counts []uint64, buckets []float64, p float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	want := uint64(math.Ceil(p / 100 * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if total > 0 && cum >= want {
			if hi := buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return buckets[i]
		}
	}
	return 0
}

// maxRSSBytes is the process's peak resident set.
func maxRSSBytes() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) * 1024, nil // Linux reports KiB
}
