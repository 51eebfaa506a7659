package obs_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"godsm/internal/core"
	"godsm/internal/obs"
	"godsm/internal/sim"
	"godsm/internal/trace"
)

// miniStencil is a small SPMD workload exercising faults, diffs, update
// pushes and home migration — enough protocol variety to validate every
// exporter against the bounded Log.
func miniStencil(rows, cols, iters int) func(*core.Proc) {
	return func(p *core.Proc) {
		a := p.AllocF64Matrix(rows, cols)
		b := p.AllocF64Matrix(rows, cols)
		me, np := p.ID(), p.NumProcs()
		lo, hi := rows*me/np, rows*(me+1)/np
		if me == 0 {
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					a.Set(r, c, float64(r*cols+c)+float64((r*r+c*c)%97))
				}
			}
		}
		p.Barrier()
		half := func(src, dst core.F64Matrix) {
			for r := lo; r < hi; r++ {
				for c := 0; c < cols; c++ {
					up, down := (r+rows-1)%rows, (r+1)%rows
					dst.Set(r, c, (src.At(up, c)+src.At(down, c)+src.At(r, c))/3)
				}
				p.Charge(sim.Duration(cols) * 50 * sim.Nanosecond)
			}
			p.Barrier()
		}
		for it := 0; it < iters; it++ {
			half(a, b)
			half(b, a)
			p.IterationBoundary()
		}
		var sum uint64
		for r := lo; r < hi; r++ {
			sum ^= uint64(r) * uint64(a.At(r, 0))
		}
		res := p.ReduceXor([]uint64{sum})
		p.SetResult(res[0])
	}
}

// runInstrumented executes one bar-u run with every observability feature
// attached and returns the log and the two exported documents.
func runInstrumented(t *testing.T) (*core.Report, *trace.Log, []byte, []byte) {
	t.Helper()
	log := trace.New(1 << 20)
	var jsonl, chrome bytes.Buffer
	js := obs.NewJSONLSink(&jsonl)
	cs := obs.NewChromeSink(&chrome)
	rep, err := core.Run(core.Config{
		Procs:        4,
		Protocol:     core.ProtoBarU,
		SegmentBytes: 2 * 32 * 64 * 8,
		Sinks:        []trace.Sink{log, js, cs},
		Timeline:     true,
		PageStats:    true,
	}, miniStencil(32, 64, 6))
	if err != nil {
		t.Fatal(err)
	}
	if err := js.Close(); err != nil {
		t.Fatalf("jsonl close: %v", err)
	}
	if err := cs.Close(); err != nil {
		t.Fatalf("chrome close: %v", err)
	}
	if log.Dropped() != 0 {
		t.Fatalf("log dropped %d events; enlarge the cap", log.Dropped())
	}
	return rep, log, jsonl.Bytes(), chrome.Bytes()
}

// jsonlEvent mirrors the JSONL sink's record schema.
type jsonlEvent struct {
	T    int64  `json:"t"`
	Node int    `json:"node"`
	Kind string `json:"kind"`
	Page int    `json:"page"`
	Arg  int64  `json:"arg"`
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	_, log, jsonl, _ := runInstrumented(t)
	counts := map[string]int{}
	var total int
	var lastT int64 = -1
	sc := bufio.NewScanner(bytes.NewReader(jsonl))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e jsonlEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		counts[e.Kind]++
		total++
		if e.T < lastT {
			t.Fatalf("JSONL events out of global time order: %d after %d", e.T, lastT)
		}
		lastT = e.T
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if total != len(log.Events()) {
		t.Fatalf("JSONL has %d events, log has %d", total, len(log.Events()))
	}
	for kind, n := range log.Summary() {
		if counts[kind.String()] != n {
			t.Errorf("JSONL %s count = %d, log has %d", kind, counts[kind.String()], n)
		}
	}
}

// chromeTrace mirrors the Chrome trace_event JSON object format.
type chromeTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestChromeSinkRoundTrip(t *testing.T) {
	rep, log, _, chrome := runInstrumented(t)
	var doc chromeTrace
	if err := json.Unmarshal(chrome, &doc); err != nil {
		t.Fatalf("chrome trace does not parse as trace-event JSON: %v", err)
	}
	sum := log.Summary()
	instants := map[string]int{}
	slices, metas := 0, 0
	threads := map[int]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			metas++
		case "X":
			slices++
			if e.Dur < 0 {
				t.Errorf("negative barrier duration: %+v", e)
			}
		case "i":
			instants[e.Name]++
		default:
			t.Errorf("unexpected phase %q in %+v", e.Ph, e)
		}
		threads[e.Tid] = true
	}
	// Barrier arrive/release pairs collapse into one slice each.
	if slices != sum[trace.BarrierRelease] {
		t.Errorf("chrome has %d barrier slices, log has %d releases", slices, sum[trace.BarrierRelease])
	}
	for _, k := range []trace.Kind{trace.Segv, trace.DiffCreate, trace.PageFetch, trace.Migration} {
		if instants[k.String()] != sum[k] {
			t.Errorf("chrome %s instants = %d, log has %d", k, instants[k.String()], sum[k])
		}
	}
	if metas != rep.Procs {
		t.Errorf("thread_name metadata for %d nodes, want %d", metas, rep.Procs)
	}
	if len(threads) != rep.Procs {
		t.Errorf("events on %d threads, want %d nodes", len(threads), rep.Procs)
	}
}

func TestTimelineMatchesTrace(t *testing.T) {
	rep, log, _, _ := runInstrumented(t)
	tl := rep.Timeline
	if tl == nil {
		t.Fatal("no timeline on report")
	}
	sum := log.Summary()
	perNodeBarriers := sum[trace.BarrierRelease] / rep.Procs
	if len(tl.Epochs) != perNodeBarriers {
		t.Fatalf("timeline has %d epochs, want one per barrier = %d", len(tl.Epochs), perNodeBarriers)
	}
	var segvs, diffs, barriers int64
	var prevEnd sim.Time
	for i, e := range tl.Epochs {
		if e.Epoch != i {
			t.Fatalf("epoch %d has index %d", i, e.Epoch)
		}
		if len(e.PerNode) != rep.Procs {
			t.Fatalf("epoch %d has %d node samples, want %d", i, len(e.PerNode), rep.Procs)
		}
		if e.End < prevEnd {
			t.Fatalf("epoch %d ends (%v) before epoch %d (%v)", i, e.End, i-1, prevEnd)
		}
		prevEnd = e.End
		var nodeSum int64
		for _, ns := range e.PerNode {
			nodeSum += ns.Ctr.Segvs
		}
		if nodeSum != e.Total.Segvs {
			t.Fatalf("epoch %d Total.Segvs %d != per-node sum %d", i, e.Total.Segvs, nodeSum)
		}
		segvs += e.Total.Segvs
		diffs += e.Total.Diffs
		barriers += e.Total.Barriers
	}
	// The timeline covers the whole run, so its sums must equal the trace's
	// whole-run event counts (compute-path kinds; nothing runs after the
	// final quiesce barrier).
	if segvs != int64(sum[trace.Segv]) {
		t.Errorf("timeline segvs = %d, trace has %d", segvs, sum[trace.Segv])
	}
	if diffs != int64(sum[trace.DiffCreate]) {
		t.Errorf("timeline diffs = %d, trace has %d", diffs, sum[trace.DiffCreate])
	}
	if barriers != int64(sum[trace.BarrierRelease]) {
		t.Errorf("timeline barriers = %d, trace has %d releases", barriers, sum[trace.BarrierRelease])
	}

	var table strings.Builder
	if _, err := tl.WriteTable(&table); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "epoch") || strings.Count(table.String(), "\n") != len(tl.Epochs)+1 {
		t.Errorf("timeline table malformed:\n%s", table.String())
	}
}

func TestPageStatsMatchTrace(t *testing.T) {
	rep, log, _, _ := runInstrumented(t)
	ps := rep.PageStats
	if ps == nil {
		t.Fatal("no page stats on report")
	}
	sum := log.Summary()
	var agg obs.PageCounters
	for _, c := range ps.Pages {
		agg.Faults += c.Faults
		agg.Diffs += c.Diffs
		agg.PageFetches += c.PageFetches
		agg.DiffFetches += c.DiffFetches
		agg.Migrations += c.Migrations
	}
	if agg.Faults != int64(sum[trace.Segv]) {
		t.Errorf("page faults = %d, trace has %d segvs", agg.Faults, sum[trace.Segv])
	}
	if agg.Diffs != int64(sum[trace.DiffCreate]) {
		t.Errorf("page diffs = %d, trace has %d diff creations", agg.Diffs, sum[trace.DiffCreate])
	}
	if agg.PageFetches != int64(sum[trace.PageFetch]) {
		t.Errorf("page fetches = %d, trace has %d", agg.PageFetches, sum[trace.PageFetch])
	}
	if agg.Migrations != int64(sum[trace.Migration]) {
		t.Errorf("page migrations = %d, trace has %d", agg.Migrations, sum[trace.Migration])
	}

	top := ps.Top(5)
	if len(top) == 0 || len(top) > 5 {
		t.Fatalf("Top(5) returned %d pages", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Activity() > top[i-1].Activity() {
			t.Fatalf("Top not sorted: %v", top)
		}
	}
	var table strings.Builder
	if _, err := ps.WriteTop(&table, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "page") {
		t.Errorf("hot-page table malformed:\n%s", table.String())
	}
}

// TestPageStatsDisabledNoAlloc pins the acceptance criterion: with page
// stats off (nil *PageStats), the hot-path recording methods allocate
// nothing.
func TestPageStatsDisabledNoAlloc(t *testing.T) {
	var ps *obs.PageStats
	allocs := testing.AllocsPerRun(1000, func() {
		ps.Fault(1)
		ps.Diff(2)
		ps.PageFetch(3)
		ps.DiffFetch(4)
		ps.UpdatePush(5)
		ps.Migration(6)
	})
	if allocs != 0 {
		t.Fatalf("disabled page stats allocate %.1f per op, want 0", allocs)
	}
}

func TestChromeSinkEmptyRunIsValid(t *testing.T) {
	var buf bytes.Buffer
	cs := obs.NewChromeSink(&buf)
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty chrome trace does not parse: %v", err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("empty sink produced %d events", len(doc.TraceEvents))
	}
}
