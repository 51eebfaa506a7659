// Overdrive: a walkthrough of the paper's Figure 5 — two barrier sites per
// iteration, x written after barrier 1 and y written after barrier 2.
// After a learning iteration, bar-s twins x and y eagerly at "the next
// occurrence" of each barrier (no more segvs); bar-m additionally leaves
// both writable for the whole run (no more mprotects). The program then
// diverges on purpose to show the safety net.
package main

import (
	"fmt"
	"log"

	"godsm"
)

const (
	pageWords = 1024 // one 8 KB page of float64
	iters     = 8
)

// figure5 writes x in the epoch after barrier site 0 and y in the epoch
// after barrier site 1, exactly like the paper's P1.
func figure5(diverge bool) func(*godsm.Proc) {
	return func(p *godsm.Proc) {
		x := p.AllocF64(pageWords)
		y := p.AllocF64(pageWords)
		me := p.ID()
		lo := pageWords * me / p.NumProcs()
		hi := pageWords * (me + 1) / p.NumProcs()
		p.Barrier() // barrier 1 of iteration 0
		for it := 0; it < iters; it++ {
			if it == 4 {
				p.StartMeasure()
			}
			for i := lo; i < hi; i++ { // w(x) after barrier 1
				x.Set(i, float64(it*100+i))
			}
			if diverge && it == 6 {
				// The sharing pattern changes mid-overdrive: y is written
				// in x's epoch. bar-s traps this by segv; bar-m's checker
				// catches the silent write.
				y.Set(lo, -1)
			}
			p.Charge(200 * godsm.Microsecond)
			p.Barrier()                // barrier 2
			for i := lo; i < hi; i++ { // w(y) after barrier 2
				y.Set(i, x.Get(i)*0.5)
			}
			p.Charge(200 * godsm.Microsecond)
			p.Barrier() // barrier 1 of the next iteration
			p.IterationBoundary()
		}
		p.StopMeasure()
		sum := p.ReduceXor([]uint64{x.Checksum(lo, hi) ^ y.Checksum(lo, hi)})
		p.SetResult(sum[0])
	}
}

func main() {
	run := func(proto godsm.ProtocolKind, body func(*godsm.Proc)) (*godsm.Report, error) {
		return godsm.RunWith(body, godsm.WithProcs(4), godsm.WithProtocol(proto), godsm.WithSegmentBytes(2*pageWords*8),
			godsm.WithConfig(func(c *godsm.Config) { c.CheckOverdrive = true }))
	}

	fmt.Println("Figure 5 walkthrough: w(x) after barrier 1, w(y) after barrier 2")
	fmt.Printf("%-8s %8s %10s %8s  %s\n", "protocol", "segvs", "mprotects", "twins", "note")
	for _, proto := range []godsm.ProtocolKind{godsm.BarU, godsm.BarS, godsm.BarM} {
		rep, err := run(proto, figure5(false))
		if err != nil {
			log.Fatal(err)
		}
		note := map[godsm.ProtocolKind]string{
			godsm.BarU: "segv-trapped first writes, protections toggled per epoch",
			godsm.BarS: "history predicts the writes: twins made eagerly, no segvs",
			godsm.BarM: "pages left writable for good: no VM system calls at all",
		}[proto]
		fmt.Printf("%-8s %8d %10d %8d  %s\n",
			rep.Protocol, rep.Total.Segvs, rep.Total.Mprotects, rep.Total.Twins, note)
	}

	fmt.Println("\nnow the pattern diverges mid-overdrive (w(y) in x's epoch):")
	for _, proto := range []godsm.ProtocolKind{godsm.BarS, godsm.BarM} {
		_, err := run(proto, figure5(true))
		if err == nil {
			log.Fatalf("%v: divergence went undetected", proto)
		}
		fmt.Printf("%-8s aborted as the paper's prototype does: %v\n", proto, err)
	}
}
