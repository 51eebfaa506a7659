package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"godsm/internal/apps"
	"godsm/internal/core"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {39, 50, true}, {40, 75, true},
		{99, 75, true}, {100, 90, true}, {999, 90, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestFromSamples(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 .. 1, unsorted
	}
	m := fromSamples(xs)
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if m.n != 100 || !near(m.value, 50.5) || !near(m.q1, 25.75) || !near(m.q3, 75.25) || m.tailPct != 90 || !near(m.tail, 90.1) {
		t.Errorf("fromSamples(1..100) = %+v", m)
	}
}

func TestBucketOf(t *testing.T) {
	names := func(fns ...string) []frame {
		st := make([]frame, len(fns))
		for i, fn := range fns {
			st[i] = frame{fn: fn}
		}
		return st
	}
	for _, tc := range []struct {
		want  string
		stack []frame // leaf first
	}{
		{"kvload", names("sort.SearchFloat64s", "godsm/internal/kvload.(*Sampler).key", "godsm/internal/kvload.(*Stream).Next", "godsm/internal/apps.KV.func1")},
		{"apps", names("runtime.memmove", "godsm/internal/apps.FFT.func1", "godsm/internal/core.Run")},
		// A closure of an inlined constructor is named after its caller;
		// its source file still places it in apps.
		{"apps", []frame{{"main.buildCells.Barnes.func4.3.1", godsmRoot + "internal/apps/barnes.go"}, {"godsm/internal/core.(*node).runBody", godsmRoot + "internal/core/engine.go"}}},
		{"core", []frame{{"godsm/internal/core.F64Array.Get", godsmRoot + "internal/core/accessors.go"}, {"main.buildCells.Barnes.func4.3.1", godsmRoot + "internal/apps/barnes.go"}}},
		{"runtime_gc", names("runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "godsm/internal/core.(*node).barrier")},
		{"runtime_gc", names("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker")},
		{"runtime_sched", names("runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall")},
		{"runtime_sched", names("runtime.chansend1", "godsm/internal/sim.(*Proc).yieldAndWait", "godsm/internal/sim.(*Proc).Recv")},
		{"syscall", names("internal/runtime/syscall.Syscall6", "syscall.Syscall6", "syscall.sendto", "internal/poll.(*FD).WriteTo", "net.(*UDPConn).WriteTo", "godsm/internal/transport.(*udpTransport).Send")},
		{"transport", names("internal/poll.(*fdMutex).rwlock", "internal/poll.(*FD).WriteTo", "godsm/internal/transport.(*udpTransport).Send")},
		{"obs", names("godsm/internal/trace.(*Log).Add", "godsm/internal/core.(*node).trc")},
		{"vm", names("godsm/internal/vm.makeDiff[go.shape.struct {}]", "godsm/internal/core.(*node).flush")},
		{"other", names("godsm/internal/stats.(*Counters).Add", "godsm/internal/core.(*cluster).report")},
		{"other", []frame{{"main.(*bench).pass", godsmRoot + "perfbench/main.go"}, {"main.run", godsmRoot + "perfbench/main.go"}}},
		{"other", nil},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	return x
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.count
		if len(s.stack) > 0 && strings.HasSuffix(s.stack[0].fn, ".spin") && strings.HasSuffix(s.stack[0].file, "perfbench/bench_test.go") {
			inSpin += s.count
		}
	}
	if total == 0 || inSpin == 0 {
		t.Fatalf("%d samples, %d with spin as leaf; want some of each", total, inSpin)
	}
}

func TestGateRejectsAlteredReports(t *testing.T) {
	a := &apps.App{Name: "x"}
	simCell := cell{name: "x/bar-u", app: a, procs: 8, proto: core.ProtoBarU}
	udpCell := cell{name: "x/bar-u@udp", app: a, procs: 2, proto: core.ProtoBarU, transport: "udp"}
	report := func(sum uint64, msgs int64) *core.Report {
		r := &core.Report{Checksum: sum, HasChecksum: true, Elapsed: 1000}
		r.Total.Messages = msgs
		r.BreakdownSum.App = 900
		return r
	}
	g := newGate(&setup{
		seq:  map[string]*core.Report{"x": report(42, 0)},
		twin: map[string]*core.Report{udpCell.name: report(42, 17)},
	})
	if err := g.check(simCell, report(42, 100)); err != nil {
		t.Fatalf("first pass rejected: %v", err)
	}
	if err := g.check(simCell, report(42, 100)); err != nil {
		t.Fatalf("identical pass rejected: %v", err)
	}
	altered := map[string]*core.Report{
		"checksum":    report(43, 100),
		"no checksum": {Elapsed: 1000},
		"counter":     report(42, 101),
	}
	altered["elapsed"] = report(42, 100)
	altered["elapsed"].Elapsed++
	altered["breakdown"] = report(42, 100)
	altered["breakdown"].BreakdownSum.Wait = 1
	altered["retransmit counter"] = report(42, 100)
	altered["retransmit counter"].Total.Retransmits = 1
	for what, r := range altered {
		if err := g.check(simCell, r); err == nil {
			t.Errorf("altered %s accepted", what)
		}
	}
	if err := g.check(udpCell, report(42, 23)); err != nil {
		t.Errorf("udp run with retransmits rejected: %v", err)
	}
	if err := g.check(udpCell, report(42, 16)); err == nil {
		t.Error("udp run with fewer messages than its twin accepted")
	}
	if err := g.check(udpCell, report(7, 23)); err == nil {
		t.Error("udp run with a wrong checksum accepted")
	}
}
