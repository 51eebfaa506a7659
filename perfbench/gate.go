package main

import (
	"fmt"

	"godsm/internal/core"
)

// gate is the benchmark's correctness check. Every cell's checksum must
// equal its app's sequential baseline. On the virtual clock a cell must
// also repeat its first pass exactly: elapsed time, every counter and the
// time breakdown. On a real transport a cell must send at least as many
// messages as its virtual-clock twin, which never retransmits.
type gate struct {
	seq  map[string]*core.Report // sequential baseline by app name
	twin map[string]*core.Report // virtual-clock twin by cell name
	ref  map[string]*core.Report // first accepted pass by cell name
}

func newGate(st *setup) *gate {
	return &gate{seq: st.seq, twin: st.twin, ref: map[string]*core.Report{}}
}

// check returns why rep breaks the gate, or nil.
func (g *gate) check(c cell, rep *core.Report) error {
	base := g.seq[c.app.Name]
	if !rep.HasChecksum || rep.Checksum != base.Checksum {
		return fmt.Errorf("%s: checksum %#x, sequential baseline %#x", c.name, rep.Checksum, base.Checksum)
	}
	if c.realtime() {
		if tw := g.twin[c.name]; rep.Total.Messages < tw.Total.Messages {
			return fmt.Errorf("%s: %d messages, fewer than the %d of its virtual-clock twin", c.name, rep.Total.Messages, tw.Total.Messages)
		}
		return nil
	}
	ref := g.ref[c.name]
	if ref == nil {
		g.ref[c.name] = rep
		return nil
	}
	switch {
	case rep.Elapsed != ref.Elapsed:
		return fmt.Errorf("%s: virtual elapsed %d ns, first pass %d ns", c.name, rep.Elapsed, ref.Elapsed)
	case rep.Total != ref.Total:
		return fmt.Errorf("%s: counters %+v differ from the first pass's %+v", c.name, rep.Total, ref.Total)
	case rep.BreakdownSum != ref.BreakdownSum:
		return fmt.Errorf("%s: time breakdown %+v differs from the first pass's %+v", c.name, rep.BreakdownSum, ref.BreakdownSum)
	}
	return nil
}

// sameSetup checks that a repeated set-up reproduced the first one's
// baselines exactly: they all run on the virtual clock.
func (g *gate) sameSetup(st *setup) error {
	for name, r := range st.seq {
		if b := g.seq[name]; r.Checksum != b.Checksum || r.Elapsed != b.Elapsed || r.Total != b.Total {
			return fmt.Errorf("%s: sequential baseline differs between set-ups", name)
		}
	}
	for name, r := range st.twin {
		if b := g.twin[name]; r.Checksum != b.Checksum || r.Elapsed != b.Elapsed || r.Total != b.Total {
			return fmt.Errorf("%s: virtual-clock twin differs between set-ups", name)
		}
	}
	return nil
}
