// Locks: the generality that costs the homeless protocols their speed.
// lmw supports lock synchronization (lazy release consistency: each
// acquire pulls exactly the write notices the requester has not seen),
// which is why its consistency state lives until an explicit garbage
// collection. The barrier-only bar protocols refuse locks by design.
package main

import (
	"fmt"
	"log"

	"godsm"
)

const (
	workers = 6
	tasks   = 120
)

// taskFarm is a lock-based work queue: a shared cursor guarded by lock 0,
// results written under page ownership, a tally guarded by lock 1.
func taskFarm(p *godsm.Proc) {
	cursor := p.AllocF64(1024) // page 0: the queue cursor
	results := p.AllocF64(tasks)
	tally := p.AllocF64(1024) // its own page: the grand total
	p.Barrier()
	local := 0.0
	for {
		p.Acquire(0)
		next := int(cursor.Get(0))
		if next >= tasks {
			p.Release(0)
			break
		}
		cursor.Set(0, float64(next+1))
		p.Release(0)

		// "Work": deterministic pseudo-computation on the claimed task.
		v := float64((next*2654435761)%1000) / 10
		results.Set(next, v)
		local += v
		p.Charge(150 * godsm.Microsecond)
	}
	p.Acquire(1)
	tally.Set(0, tally.Get(0)+local)
	p.Release(1)
	p.Barrier()
	p.SetResult(uint64(int64(tally.Get(0) * 10)))
}

func main() {
	seg := (1024 + tasks + 1024) * 8
	seq, err := godsm.RunWith(taskFarm, godsm.WithProtocol(godsm.Seq), godsm.WithSegmentBytes(seg))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lock-based task farm, %d tasks, %d workers\n\n", tasks, workers)
	for _, proto := range []godsm.ProtocolKind{godsm.LmwI, godsm.LmwU} {
		rep, err := godsm.RunWith(taskFarm, godsm.WithProcs(workers), godsm.WithProtocol(proto), godsm.WithSegmentBytes(seg))
		if err != nil {
			log.Fatal(err)
		}
		if rep.Checksum != seq.Checksum {
			log.Fatalf("%v computed a different tally", proto)
		}
		fmt.Printf("%-6s  %4d lock acquires, %5d messages, %4d diffs retained, tally matches sequential\n",
			rep.Protocol, rep.Total.LockAcquires, rep.Total.Messages, rep.Total.DiffsStored)
	}

	// The home-based protocols are barrier-only: "by limiting the protocol
	// to codes that only use barrier synchronization, we can prevent any
	// diff or consistency state from living past the next barrier."
	if _, err := godsm.RunWith(taskFarm, godsm.WithProcs(workers), godsm.WithProtocol(godsm.BarU), godsm.WithSegmentBytes(seg)); err != nil {
		fmt.Printf("\nbar-u refused, as designed: %v\n", err)
	} else {
		log.Fatal("bar-u unexpectedly accepted locks")
	}

	// Garbage collection bounds the homeless protocols' appetite for diffs
	// (here keyed to barriers; the task farm itself is lock-only, so we add
	// a barrier-using epilogue via the stencil apps — see cmd/dsmrun).
	rep, err := godsm.RunWith(taskFarm, godsm.WithProcs(workers), godsm.WithProtocol(godsm.LmwI), godsm.WithSegmentBytes(seg),
		godsm.WithConfig(func(c *godsm.Config) { c.LmwGCBarriers = 1 }))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with GC every barrier: %d diffs reclaimed\n", rep.Total.DiffsGCed)
}
