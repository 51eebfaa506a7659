package godsm

// One benchmark per table and figure of the paper's evaluation, plus the
// ablations DESIGN.md calls out. Each benchmark iteration performs one
// full simulated run of the experiment's workload; the custom metrics
// report the paper's quantities (speedup, diffs, misses, messages, data
// volume, time-breakdown fractions) from the simulator's virtual clock,
// while ns/op measures the real cost of simulating it.
//
// Regenerate the actual tables with cmd/repro, which formats the same
// numbers the way the paper prints them.

import (
	"strconv"
	"testing"

	"godsm/internal/apps"
	"godsm/internal/core"
	"godsm/internal/cost"
	"godsm/internal/obs"
	"godsm/internal/repro"
	"godsm/internal/vm"
	"godsm/internal/wire"
)

const benchProcs = 8

// benchSeqTimes caches sequential baselines across benchmarks (they are
// protocol-free and identical between iterations).
var benchSeqTimes = map[string]Duration{}

func seqTime(b *testing.B, app *apps.App) Duration {
	b.Helper()
	if t, ok := benchSeqTimes[app.Name]; ok {
		return t
	}
	rep, err := app.RunWith(1, Seq, apps.RunOpts{})
	if err != nil {
		b.Fatal(err)
	}
	benchSeqTimes[app.Name] = rep.Elapsed
	return rep.Elapsed
}

func benchRun(b *testing.B, app *apps.App, proto ProtocolKind, model *CostModel) *Report {
	b.Helper()
	var rep *Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = app.RunWith(benchProcs, proto, apps.RunOpts{Model: model})
		if err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

// BenchmarkAppsTable regenerates the §3.1 applications table: per-app
// shared segment size and synchronization granularity under bar-u.
func BenchmarkAppsTable(b *testing.B) {
	for _, app := range apps.All() {
		app := app
		proto := BarU
		if app.Dynamic {
			proto = BarI
		}
		b.Run(app.Name, func(b *testing.B) {
			rep := benchRun(b, app, proto, nil)
			b.ReportMetric(float64(app.SegmentBytes)/1024, "segKB")
			perNode := rep.Total.Barriers / int64(rep.Procs)
			if perNode > 0 {
				b.ReportMetric(float64(rep.Elapsed)/float64(perNode)/1e3, "syncgran_µs")
			}
		})
	}
}

// BenchmarkTable1 regenerates Table 1: diffs, remote misses, messages and
// data volume for each application under lmw-i, lmw-u, bar-i and bar-u.
func BenchmarkTable1(b *testing.B) {
	for _, app := range apps.All() {
		for _, proto := range []ProtocolKind{LmwI, LmwU, BarI, BarU} {
			app, proto := app, proto
			b.Run(app.Name+"/"+proto.String(), func(b *testing.B) {
				rep := benchRun(b, app, proto, nil)
				b.ReportMetric(float64(rep.Total.Diffs), "diffs")
				b.ReportMetric(float64(rep.Total.RemoteMisses), "misses")
				b.ReportMetric(float64(rep.Total.Messages), "messages")
				b.ReportMetric(float64(rep.Total.DataBytes)/1024, "dataKB")
			})
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2: 8-processor speedups of the four
// base protocols over all eight applications.
func BenchmarkFigure2(b *testing.B) {
	for _, app := range apps.All() {
		for _, proto := range []ProtocolKind{LmwI, LmwU, BarI, BarU} {
			app, proto := app, proto
			b.Run(app.Name+"/"+proto.String(), func(b *testing.B) {
				seq := seqTime(b, app)
				rep := benchRun(b, app, proto, nil)
				b.ReportMetric(rep.Speedup(seq), "speedup")
			})
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3: the four-way breakdown of bar-u
// execution time (app / os / sigio / wait fractions).
func BenchmarkFigure3(b *testing.B) {
	for _, app := range apps.All() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			rep := benchRun(b, app, BarU, nil)
			af, of, sf, wf := rep.BreakdownSum.Fractions()
			b.ReportMetric(af*100, "app%")
			b.ReportMetric(of*100, "os%")
			b.ReportMetric(sf*100, "sigio%")
			b.ReportMetric(wf*100, "wait%")
		})
	}
}

// BenchmarkFigure4 regenerates Figure 4: overdrive speedups (bar-u, bar-s,
// bar-m, and the better lmw protocol) for the seven static applications;
// barnes is excluded exactly as in the paper.
func BenchmarkFigure4(b *testing.B) {
	for _, app := range apps.All() {
		if app.Dynamic {
			continue
		}
		for _, proto := range []ProtocolKind{LmwU, BarU, BarS, BarM} {
			app, proto := app, proto
			b.Run(app.Name+"/"+proto.String(), func(b *testing.B) {
				seq := seqTime(b, app)
				rep := benchRun(b, app, proto, nil)
				b.ReportMetric(rep.Speedup(seq), "speedup")
				b.ReportMetric(float64(rep.Total.Segvs), "segvs")
				b.ReportMetric(float64(rep.Total.Mprotects), "mprotects")
			})
		}
	}
}

// BenchmarkAblationStress sweeps the §4 VM-stress model on swm: with an
// ideal OS, bar-m's advantage over bar-u nearly vanishes.
func BenchmarkAblationStress(b *testing.B) {
	app := apps.SWM(apps.SWMDefault())
	for _, tc := range []struct {
		name  string
		model *cost.Model
	}{
		{"stressed", cost.Default()},
		{"ideal", cost.Ideal()},
	} {
		for _, proto := range []ProtocolKind{BarU, BarM} {
			tc, proto := tc, proto
			b.Run(tc.name+"/"+proto.String(), func(b *testing.B) {
				seqRep, err := app.RunWith(1, Seq, apps.RunOpts{Model: tc.model})
				if err != nil {
					b.Fatal(err)
				}
				rep := benchRun(b, app, proto, tc.model)
				b.ReportMetric(rep.Speedup(seqRep.Elapsed), "speedup")
			})
		}
	}
}

// BenchmarkAblationScale measures bar-u speedups at 2, 4 and 8 nodes.
func BenchmarkAblationScale(b *testing.B) {
	for _, app := range apps.All() {
		for _, procs := range []int{2, 4, 8} {
			app, procs := app, procs
			b.Run(app.Name+"/"+strconv.Itoa(procs), func(b *testing.B) {
				seq := seqTime(b, app)
				var rep *Report
				for i := 0; i < b.N; i++ {
					var err error
					rep, err = app.RunWith(procs, BarU, apps.RunOpts{})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(rep.Speedup(seq), "speedup")
			})
		}
	}
}

// BenchmarkAblationHome compares bar-u with runtime home migration (the
// paper's protocol) against static block homes.
func BenchmarkAblationHome(b *testing.B) {
	for _, app := range apps.All() {
		if app.Dynamic {
			continue
		}
		for _, tc := range []struct {
			name    string
			disable bool
		}{{"migrated", false}, {"static", true}} {
			app, tc := app, tc
			b.Run(app.Name+"/"+tc.name, func(b *testing.B) {
				seq := seqTime(b, app)
				var rep *Report
				for i := 0; i < b.N; i++ {
					var err error
					rep, err = core.Run(core.Config{
						Procs:            benchProcs,
						Protocol:         BarU,
						SegmentBytes:     app.SegmentBytes,
						DisableMigration: tc.disable,
					}, app.Body)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(rep.Speedup(seq), "speedup")
				b.ReportMetric(float64(rep.Total.RemoteMisses), "misses")
			})
		}
	}
}

// BenchmarkSummary reports the paper's headline averages in one shot.
func BenchmarkSummary(b *testing.B) {
	var s *repro.Summary
	for i := 0; i < b.N; i++ {
		r := repro.NewRunner()
		var err error
		s, err = r.ComputeSummary()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric((s.BarUOverLmw-1)*100, "barU_vs_lmw_%")
	b.ReportMetric((s.BarSOverBarU-1)*100, "barS_vs_barU_%")
	b.ReportMetric((s.BarMOverBarU-1)*100, "barM_vs_barU_%")
	b.ReportMetric((s.BarMOverLmwI-1)*100, "barM_vs_lmwI_%")
}

// BenchmarkAblationPageSize compares bar-u at 4 KB vs the paper's 8 KB
// protection granularity.
func BenchmarkAblationPageSize(b *testing.B) {
	for _, app := range apps.All() {
		if app.Dynamic {
			continue
		}
		for _, ps := range []int{4096, 8192} {
			app, ps := app, ps
			b.Run(app.Name+"/"+strconv.Itoa(ps), func(b *testing.B) {
				m := cost.Default()
				m.PageSize = ps
				seqRep, err := app.RunWith(1, Seq, apps.RunOpts{Model: m})
				if err != nil {
					b.Fatal(err)
				}
				rep := benchRun(b, app, BarU, m)
				b.ReportMetric(rep.Speedup(seqRep.Elapsed), "speedup")
				b.ReportMetric(float64(rep.Total.Mprotects), "mprotects")
			})
		}
	}
}

// BenchmarkSweepFigure2 times the Figure 2 sweep end to end through the
// parallel scheduler: one sub-benchmark per worker count, each iteration
// warming a fresh Runner's cache via Prefetch. On a multi-core machine the
// gomaxprocs variant should show the sweep fanning out; the rendered
// output is byte-identical either way (asserted by the repro tests).
func BenchmarkSweepFigure2(b *testing.B) {
	for _, tc := range []struct {
		name     string
		parallel int
	}{
		{"serial", 1},
		{"gomaxprocs", 0},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := &repro.Runner{Procs: benchProcs, Small: true, Parallel: tc.parallel}
				if err := r.Prefetch("fig2"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDiffCodec pins the allocation diet: MakeDiff builds a diff in
// at most two allocations (the run slice plus one shared payload backing)
// and AppendEncode into a reused buffer allocates nothing. Guarded like
// BenchmarkPageStatsDisabled — the benchmark fails outright if a
// regression creeps in, rather than silently reporting a worse number.
func BenchmarkDiffCodec(b *testing.B) {
	old := make([]byte, 8192)
	cur := make([]byte, 8192)
	for i := 0; i < len(cur); i += 512 {
		cur[i] = byte(i/512 + 1)
	}
	d := vm.MakeDiff(0, old, cur)
	buf := make([]byte, 0, d.WireSize())
	if allocs := testing.AllocsPerRun(100, func() {
		d = vm.MakeDiff(0, old, cur)
	}); allocs > 2 {
		b.Fatalf("MakeDiff allocates %.1f per op, want at most 2", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		buf = d.AppendEncode(buf[:0])
	}); allocs != 0 {
		b.Fatalf("AppendEncode into a sized buffer allocates %.1f per op, want 0", allocs)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d = vm.MakeDiff(0, old, cur)
		buf = d.AppendEncode(buf[:0])
	}
	if len(buf) != d.WireSize() {
		b.Fatalf("encoded %d bytes, want WireSize %d", len(buf), d.WireSize())
	}
}

// BenchmarkWireCodec pins the frame codec's allocation behaviour on the
// two frames that dominate real-transport traffic: a copyset update flush
// (diff batch) and a full 8 KiB page reply. Encoding into a reused buffer
// must allocate nothing — AppendFrame is on every remote send. Decoding
// is zero-copy (payload bytes alias the frame) and pinned at its residual
// slice-materialization cost (payload struct and slice headers; the bytes
// themselves are never copied).
func BenchmarkWireCodec(b *testing.B) {
	old := make([]byte, 8192)
	cur := make([]byte, 8192)
	for i := 0; i < len(cur); i += 512 {
		cur[i] = byte(i/512 + 1)
	}
	flush := &wire.UpdateFlush{Epoch: 4, Diffs: []wire.DiffMsg{
		{Notice: wire.WriteNotice{Page: 3, Creator: 1, Epoch: 4}, Diff: vm.MakeDiff(3, old, cur)},
		{Notice: wire.WriteNotice{Page: 7, Creator: 2, Epoch: 4}, Diff: vm.MakeDiff(7, old, cur)},
	}}
	fh := wire.Header{Kind: wire.KindUpdateFlush, FromNode: 2, FromPort: 1, Size: 64, Rid: 9, Orig: 2}
	rep := &wire.PageRep{Page: 5, Data: cur, Version: 3, Absorbed: []int{1, 2}}
	rh := wire.Header{Kind: wire.KindPageRep, FromNode: 1, Reply: true, Size: 8192}

	frames := map[string]struct {
		h            wire.Header
		data         any
		decodeAllocs float64
	}{
		"updateFlush": {fh, flush, 4},
		"pageRep":     {rh, rep, 2},
	}
	for name, fr := range frames {
		fr := fr
		b.Run(name, func(b *testing.B) {
			enc, err := wire.AppendFrame(nil, &fr.h, fr.data)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 0, len(enc)+64)
			if allocs := testing.AllocsPerRun(100, func() {
				buf, err = wire.AppendFrame(buf[:0], &fr.h, fr.data)
				if err != nil {
					b.Fatal(err)
				}
			}); allocs != 0 {
				b.Fatalf("%s: encode into a sized buffer allocates %.1f per op, want 0", name, allocs)
			}
			if allocs := testing.AllocsPerRun(100, func() {
				if _, _, _, err := wire.DecodeFrame(enc); err != nil {
					b.Fatal(err)
				}
			}); allocs > fr.decodeAllocs {
				b.Fatalf("%s: decode allocates %.1f per op, want at most %.0f", name, allocs, fr.decodeAllocs)
			}
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf, err = wire.AppendFrame(buf[:0], &fr.h, fr.data)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, _, err := wire.DecodeFrame(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPageStatsDisabled pins the observability acceptance criterion:
// with per-page attribution off (the default), the recording hooks that
// sit on the fault/diff/flush hot paths are nil-receiver no-ops costing
// nothing — guarded so the benchmark fails outright if an allocation ever
// creeps in.
func BenchmarkPageStatsDisabled(b *testing.B) {
	var ps *obs.PageStats
	if allocs := testing.AllocsPerRun(100, func() {
		ps.Fault(1)
		ps.Diff(2)
		ps.PageFetch(3)
		ps.DiffFetch(4)
		ps.UpdatePush(5)
		ps.Migration(6)
	}); allocs != 0 {
		b.Fatalf("disabled page stats allocate %.1f per op, want 0", allocs)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pg := vm.PageID(i & 63)
		ps.Fault(pg)
		ps.Diff(pg)
		ps.PageFetch(pg)
		ps.DiffFetch(pg)
		ps.UpdatePush(pg)
		ps.Migration(pg)
	}
}

// BenchmarkCheckDisabled pins the oracle acceptance criterion: with no
// checker attached (the default), the per-store hook in the typed
// accessors is a nil comparison and a warm store loop allocates nothing.
// Guarded like BenchmarkPageStatsDisabled — the benchmark fails outright
// if the check wiring ever puts an allocation on the store path.
func BenchmarkCheckDisabled(b *testing.B) {
	const words = 2048
	body := func(p *Proc) {
		a := p.AllocF64(words)
		lo, hi := words*p.ID()/p.NumProcs(), words*(p.ID()+1)/p.NumProcs()
		// Warm up: write-fault every partition page (twin creation
		// allocates here, before measurement starts).
		for i := lo; i < hi; i++ {
			a.Set(i, float64(i))
		}
		if p.ID() == 0 {
			// Pages stay write-enabled until the next barrier, so the
			// measured loop is the pure store path: bounds check,
			// protection check, nil checker, memory write.
			if allocs := testing.AllocsPerRun(100, func() {
				for i := lo; i < hi; i++ {
					a.Set(i, float64(i)+1)
				}
			}); allocs != 0 {
				b.Errorf("store path with checker disabled allocates %.1f per run, want 0", allocs)
			}
		}
		p.Barrier()
		p.SetResult(1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunWith(body, WithProcs(2), WithSegmentBytes(words*8)); err != nil {
			b.Fatal(err)
		}
	}
}
