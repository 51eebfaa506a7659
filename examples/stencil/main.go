// Stencil: a Jacobi relaxation run under every protocol of the paper,
// printing the speedup ladder the paper's Figure 2 is made of — invalidate
// vs update, homeless vs home-based, and the overdrive variants.
package main

import (
	"fmt"
	"log"

	"godsm"
)

const (
	size  = 192
	iters = 8
	warm  = 4
)

// jacobi is the classic two-buffer relaxation with one max reduction per
// iteration. Each outer iteration is a full period of the phase structure,
// which is what the overdrive protocols (bar-s, bar-m) need to predict
// write sets.
func jacobi(p *godsm.Proc) {
	a := p.AllocF64Matrix(size, size)
	b := p.AllocF64Matrix(size, size)
	me, np := p.ID(), p.NumProcs()
	lo, hi := size*me/np, size*(me+1)/np
	if me == 0 {
		for r := 0; r < size; r++ {
			for c := 0; c < size; c++ {
				a.Set(r, c, float64((r*31+c*17)%100))
			}
		}
	}
	p.Barrier()
	for it := 0; it < iters; it++ {
		if it == warm {
			p.StartMeasure()
		}
		res := 0.0
		for r := max(lo, 1); r < min(hi, size-1); r++ {
			for c := 1; c < size-1; c++ {
				v := (a.At(r-1, c) + a.At(r+1, c) + a.At(r, c-1) + a.At(r, c+1)) / 4
				b.Set(r, c, v)
				if d := v - a.At(r, c); d > res {
					res = d
				}
			}
			p.Charge(size * 800 * godsm.Nanosecond)
		}
		p.Reduce(godsm.RedMax, []float64{res})
		for r := max(lo, 1); r < min(hi, size-1); r++ {
			for c := 1; c < size-1; c++ {
				a.Set(r, c, b.At(r, c))
			}
			p.Charge(size * 200 * godsm.Nanosecond)
		}
		p.Barrier()
		p.IterationBoundary()
	}
	p.StopMeasure()
	sum := p.ReduceXor([]uint64{a.ChecksumRows(lo, hi)})
	p.SetResult(sum[0])
}

func main() {
	seg := godsm.WithSegmentBytes(2 * size * size * 8)
	seq, err := godsm.RunWith(jacobi, godsm.WithProtocol(godsm.Seq), seg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("jacobi %dx%d on 8 simulated nodes (sequential time %v)\n\n", size, size, seq.Elapsed)
	fmt.Printf("%-8s %8s %8s %8s %10s %8s\n", "protocol", "speedup", "misses", "segvs", "mprotects", "dataKB")
	for _, proto := range godsm.Protocols() {
		rep, err := godsm.RunWith(jacobi, godsm.WithProtocol(proto), seg)
		if err != nil {
			log.Fatal(err)
		}
		if rep.Checksum != seq.Checksum {
			log.Fatalf("%v computed a different result", proto)
		}
		fmt.Printf("%-8s %8.2f %8d %8d %10d %8d\n", rep.Protocol,
			rep.Speedup(seq.Elapsed), rep.Total.RemoteMisses, rep.Total.Segvs,
			rep.Total.Mprotects, rep.Total.DataBytes/1024)
	}
	fmt.Println("\nevery protocol verified bit-identical to the sequential run")
}
