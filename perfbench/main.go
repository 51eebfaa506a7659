// Command perfbench is godsm's benchmark. One invocation runs one workload
// as a closed loop with a single client: each DSM run starts only after the
// previous one finished, and a pass runs every cell of the workload once.
//
//	bash perfbench/run.sh --workload stencil-sim --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it times passes for --seconds and reports the end-to-end
// metrics BENCHMARK.json names; with --trace 1 it runs the layer micros,
// then alternates untraced and traced passes (CPU profile, a host-clock
// trace sink and the per-epoch timeline) and reports the per-layer metrics.
// Every run is checked against its sequential baseline; a breach makes the
// result incorrect and the exit status 1. The last line of standard output
// is the result as one JSON object.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"godsm/internal/core"
	"godsm/internal/stats"
	"godsm/internal/trace"
)

const (
	// setupReps is how many times a timed run repeats set-up; setup_s is
	// the median.
	setupReps = 5
	// minPasses is the fewest passes of each kind a run times, however
	// short --seconds is.
	minPasses = 3
)

func main() { os.Exit(run()) }

func run() int {
	var (
		wl      = flag.String("workload", "", "workload: stencil-sim, barnes-sim, kv-sim or udp-loopback")
		seed    = flag.Uint64("seed", ledger.Seed.Default, "kv traffic seed (kv-sim, udp-loopback); stencil-sim and barnes-sim have none")
		seconds = flag.Int("seconds", 20, "how long to time passes")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		commit  = flag.String("commit", "none", "source commit recorded with the result")
	)
	flag.Parse()
	if !slices.Contains(workloadNames, *wl) || *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload <name> --seed <n> --seconds <n≥1> --trace <0|1>")
		flag.Usage()
		return 2
	}
	decl, err := loadDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	env, _ := json.Marshal(map[string]any{
		"workload": *wl, "seed": *seed, "seeded": slices.Contains(ledger.Seed.Seeded, *wl),
		"seconds": *seconds, "trace": *traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": *commit,
	})
	fmt.Printf("env %s\n", env)

	b := &bench{wl: *wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	names := decl.EndToEnd
	if *traced == 1 {
		names = decl.PerLayer
		err = b.traced(context.Background())
	} else {
		err = b.timed(context.Background())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out := map[string]any{}
	for _, d := range names {
		m, ok := b.metrics[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.Name)
			return 1
		}
		out[d.Name] = map[string]any{"value": m.value, "unit": d.Unit}
		printMetric(d, m, ledgerClock(d.Name))
	}
	if len(b.metrics) != len(names) {
		fmt.Fprintf(os.Stderr, "perfbench: measured %d metrics, BENCHMARK.json declares %d\n", len(b.metrics), len(names))
		return 1
	}
	for _, f := range b.failures {
		fmt.Printf("FAILED %s\n", f)
	}
	fmt.Printf("failed_frac %g (%d of %d cell runs)\n", ratio(float64(len(b.failures)), float64(b.attempted)), len(b.failures), b.attempted)
	res, _ := json.Marshal(map[string]any{
		"correct": len(b.failures) == 0, "attempted": b.attempted, "failed": len(b.failures), "metrics": out,
	})
	fmt.Println(string(res))
	if len(b.failures) > 0 {
		return 1
	}
	return 0
}

func printMetric(d metricDecl, m measure, clock string) {
	line := fmt.Sprintf("metric %-28s %-7s %.6g %s", d.Name, "["+clock+"]", m.value, d.Unit)
	if m.n > 1 {
		line += fmt.Sprintf("  (median of %d; q1 %.6g, q3 %.6g", m.n, m.q1, m.q3)
		if m.tailPct > 0 {
			line += fmt.Sprintf(", p%g %.6g", m.tailPct, m.tail)
		}
		line += ")"
	}
	fmt.Println(line)
}

// bench is one invocation's state: the workload, what it measured and
// which cell runs broke the correctness gate.
type bench struct {
	wl        string
	seed      uint64
	seconds   time.Duration
	metrics   map[string]measure
	attempted int
	failures  []string
}

func (b *bench) fail(err error) { b.failures = append(b.failures, err.Error()) }

// cellRun is one cell's outcome within a pass; rep is nil when the run
// failed.
type cellRun struct {
	c    cell
	wall time.Duration
	rep  *core.Report
	sink *hostSink // traced passes only
}

// pass is one run of every cell of the workload.
type pass struct {
	traced bool
	ok     bool // every cell ran and passed the gate
	wall   time.Duration
	runs   []cellRun
	rt     rtDelta
	cpu    map[string]int64 // CPU samples by bucket (traced passes)
}

// timed measures the end-to-end metrics: set-up repeated setupReps times,
// one warm-up pass, then passes for b.seconds.
func (b *bench) timed(ctx context.Context) error {
	var setupS []float64
	var st *setup
	var g *gate
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, err := runSetup(ctx, b.wl, b.seed, nil, -1)
		if err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i == 0 {
			st, g = s, newGate(s)
		} else if err := g.sameSetup(s); err != nil {
			b.fail(err)
		}
	}
	passes, err := b.passes(ctx, st, g, nil, false)
	if err != nil {
		return err
	}
	var wall, alloc []float64
	for _, p := range passes {
		if p.ok {
			wall = append(wall, p.wall.Seconds())
			alloc = append(alloc, float64(p.rt.allocs)/1e6)
		}
	}
	fmt.Printf("pass walls (s): %.4f\n", wall)
	rss, err := maxRSSBytes()
	if err != nil {
		return err
	}
	b.metrics = map[string]measure{
		"wall_s":     fromSamples(wall),
		"setup_s":    fromSamples(setupS),
		"alloc_mb":   fromSamples(alloc),
		"max_rss_mb": one(rss / 1e6),
	}
	return nil
}

// passes runs one untimed warm-up pass, which also fixes the gate's
// reference results, then passes until b.seconds have elapsed and at least
// minPasses of each kind ran. With alternate, even-numbered passes are
// traced. It returns the passes after the warm-up.
func (b *bench) passes(ctx context.Context, st *setup, g *gate, sp *spanLog, alternate bool) ([]*pass, error) {
	if _, err := b.pass(ctx, st, g, sp, 0, false); err != nil {
		return nil, err
	}
	var out []*pass
	var plain, traced int
	deadline := time.Now().Add(b.seconds)
	for id := 1; time.Now().Before(deadline) || plain < minPasses || (alternate && traced < minPasses); id++ {
		p, err := b.pass(ctx, st, g, sp, id, alternate && id%2 == 0)
		if err != nil {
			return nil, err
		}
		if p.traced {
			traced++
		} else {
			plain++
		}
		out = append(out, p)
	}
	return out, nil
}

// pass runs every cell once, checking each against the gate. A traced pass
// also records a CPU profile, a host-clock sink per cell and the timeline.
func (b *bench) pass(ctx context.Context, st *setup, g *gate, sp *spanLog, id int, traced bool) (*pass, error) {
	p := &pass{traced: traced, ok: true}
	runtime.GC()
	before := readRuntime()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	span := sp.begin("pass", -1, id)
	t0 := time.Now()
	for _, c := range st.cells {
		var hs *hostSink
		var sink trace.Sink
		if traced {
			hs = newHostSink(c.procs)
			sink = hs
		}
		cs := sp.begin("run."+c.name, span, id)
		ct0 := time.Now()
		rep, err := runCell(ctx, c.app, c.procs, c.proto, c.transport, sink)
		wall := time.Since(ct0)
		sp.end(cs)
		b.attempted++
		if err == nil {
			err = g.check(c, rep)
		}
		if err != nil {
			b.fail(fmt.Errorf("pass %d: %w", id, err))
			p.ok, rep = false, nil
		}
		p.runs = append(p.runs, cellRun{c: c, wall: wall, rep: rep, sink: hs})
	}
	p.wall = time.Since(t0)
	sp.end(span)
	if traced {
		pprof.StopCPUProfile()
		samples, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		p.cpu = map[string]int64{}
		for _, s := range samples {
			p.cpu[bucketOf(s.stack)] += s.count
		}
	}
	p.rt = before.to(readRuntime())
	return p, nil
}

// traced measures the per-layer metrics: one set-up, the layer micros,
// then alternating untraced (odd id) and traced (even id) passes. Spans of
// the benchmark's own steps go to .bench_build/spans.
func (b *bench) traced(ctx context.Context) error {
	sp := newSpanLog()
	root := sp.begin("setup", -1, -1)
	st, err := runSetup(ctx, b.wl, b.seed, sp, root)
	sp.end(root)
	if err != nil {
		return err
	}
	g := newGate(st)
	m := map[string]measure{}
	if err := runMicros(st, sp, m); err != nil {
		return err
	}
	passes, err := b.passes(ctx, st, g, sp, true)
	if err != nil {
		return err
	}
	var plain, tr []*pass
	for _, p := range passes {
		switch {
		case !p.ok:
		case p.traced:
			tr = append(tr, p)
		default:
			plain = append(plain, p)
		}
	}
	if len(plain) == 0 || len(tr) == 0 {
		return errors.New("no pass of each kind passed the correctness gate")
	}
	for name, xs := range perPassMetrics(st, plain) {
		m[name] = fromSamples(xs)
	}
	for name, v := range tracedMetrics(tr) {
		m[name] = v
	}
	m["trace.overhead"] = one(ratio(fromSamples(walls(tr)).value, fromSamples(walls(plain)).value))
	m["failed_frac"] = one(ratio(float64(len(b.failures)), float64(b.attempted)))
	b.metrics = m

	sp.summarize(os.Stdout)
	path := fmt.Sprintf(".bench_build/spans/%s-seed%d.json", b.wl, b.seed)
	if err := sp.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}

func walls(ps []*pass) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall.Seconds()
	}
	return out
}

// runMicros times each layer's public functions directly.
func runMicros(st *setup, sp *spanLog, m map[string]measure) error {
	micro := func(layer string, fn func() error) error {
		s := sp.begin("micro."+layer, -1, -1)
		defer sp.end(s)
		return fn()
	}
	steps := []struct {
		layer string
		fn    func() error
	}{
		{"sim", func() (err error) {
			m["sim.handoff_ns"], m["sim.handoff_allocs"], err = microSim()
			return err
		}},
		{"core", func() (err error) {
			m["core.get_ns"], m["core.set_ns"], err = microAccessors()
			return err
		}},
		{"vm", func() error {
			m["vm.twin_ns"], m["vm.makediff_ns"], m["vm.applydiff_ns"] = microVM()
			return nil
		}},
		{"wire", func() (err error) {
			m["wire.encode_ns"], m["wire.decode_ns"], m["wire.allocs_per_frame"], err = microWire()
			return err
		}},
		{"transport", func() error {
			for _, sz := range []struct {
				prefix      string
				size, pings int
			}{{"transport.rtt_us", 64, 500}, {"transport.rtt_8k_us", 8192, 1000}} {
				rtts, err := microTransport(sz.size, sz.pings)
				if err != nil {
					return err
				}
				s := fromSamples(rtts)
				m[sz.prefix+"_p50"] = s
				p90 := s
				p90.value = pctOf(rtts, 90)
				m[sz.prefix+"_p90"] = p90
			}
			return nil
		}},
		{"kvload", func() (err error) {
			nodes := 8
			for _, c := range st.cells {
				if c.kvOps > 0 {
					nodes = c.procs
				}
			}
			m["kvload.sampler_build_ms"], m["kvload.next_ns"], err = microKVLoad(st.kv, nodes)
			return err
		}},
	}
	for _, s := range steps {
		if err := micro(s.layer, s.fn); err != nil {
			return err
		}
	}
	return nil
}

// perPassMetrics derives, for each pass, the metrics a pass's reports and
// runtime readings give, keyed by metric name, one sample per pass.
func perPassMetrics(st *setup, ps []*pass) map[string][]float64 {
	out := map[string][]float64{}
	add := func(name string, v float64) { out[name] = append(out[name], v) }
	for _, p := range ps {
		var tot stats.Counters
		var bd stats.Breakdown
		var frameBytes, twinMsgs, kvOps, kvGen int64
		var kvWall time.Duration
		var simUs float64
		var speedups []float64
		for _, r := range p.runs {
			tot.Add(r.rep.Total)
			bd.Add(r.rep.BreakdownSum)
			frameBytes += r.rep.FrameBytes
			virt := r.rep
			if r.c.realtime() {
				virt = st.twin[r.c.name]
				twinMsgs += virt.Total.Messages
			} else {
				twinMsgs += r.rep.Total.Messages
			}
			simUs += float64(virt.Elapsed) / 1e3
			speedups = append(speedups, virt.Speedup(st.seq[r.c.app.Name].Elapsed))
			if r.c.kvOps > 0 {
				kvOps += int64(r.c.kvOps)
				kvGen += int64(r.c.kvOps * r.c.procs)
				kvWall += r.wall
			}
		}
		app, osf, sigio, wait := bd.Fractions()
		add("core.messages", float64(tot.Messages))
		add("core.replies", float64(tot.Replies))
		add("core.data_kb", float64(tot.DataBytes)/1024)
		add("core.remote_misses", float64(tot.RemoteMisses))
		add("core.page_fetches", float64(tot.PageFetches))
		add("core.diff_fetches", float64(tot.DiffFetches))
		add("core.updates_sent", float64(tot.UpdatesSent))
		add("core.updates_useful_frac", ratio(float64(tot.UpdatesSent-tot.UpdatesUnneeded), float64(tot.UpdatesSent)))
		add("core.home_migrations", float64(tot.HomeMigrations))
		add("core.vt_app_frac", app)
		add("core.vt_os_frac", osf)
		add("core.vt_sigio_frac", sigio)
		add("core.vt_wait_frac", wait)
		add("core.retransmits", float64(tot.Retransmits))
		add("core.useful_msg_frac", ratio(float64(twinMsgs), float64(tot.Messages)))
		add("vm.twins", float64(tot.Twins))
		add("vm.diffs", float64(tot.Diffs))
		add("vm.segvs", float64(tot.Segvs))
		add("vm.mprotects", float64(tot.Mprotects))
		add("wire.frame_kb", float64(frameBytes)/1024)
		add("sim.host_ns_per_msg", ratio(float64(p.wall.Nanoseconds()), float64(tot.Messages+tot.Replies)))
		add("kvload.ops", float64(kvGen))
		add("kv_ops_per_s", ratio(float64(kvOps), kvWall.Seconds()))
		add("sim_time_us", simUs)
		add("speedup_gmean", gmean(speedups))
		add("runtime.gc_cpu_frac", ratio(p.rt.gcCPU, p.rt.totalCPU))
		add("runtime.gc_cycles", float64(p.rt.gcCycles))
		add("runtime.alloc_objects", float64(p.rt.mallocs))
		add("runtime.mutex_wait_ms", p.rt.mutexWait*1e3)
		add("runtime.sched_lat_us_p50", histPercentile(p.rt.schedLat, p.rt.schedBuckets, 50)*1e6)
		add("runtime.sched_lat_us_p90", histPercentile(p.rt.schedLat, p.rt.schedBuckets, 90)*1e6)
	}
	return out
}

// tracedMetrics derives the metrics only traced passes give: host-clock
// epoch lengths and barrier waits, and CPU self shares by bucket.
func tracedMetrics(ps []*pass) map[string]measure {
	var epochs, waits []float64
	var diffs, diffBytes int64
	cpu := map[string]int64{}
	var samples int64
	for _, p := range ps {
		for _, r := range p.runs {
			if r.c.realtime() {
				// The realtime kernel's timeline is on the host clock.
				for _, e := range r.rep.Timeline.Epochs {
					epochs = append(epochs, float64(e.End-e.Start)/1e6)
				}
			} else {
				epochs = append(epochs, r.sink.epochsMs()...)
			}
			waits = append(waits, r.sink.waitsMs...)
			diffs += r.sink.diffs
			diffBytes += r.sink.diffBytes
		}
		for k, v := range p.cpu {
			cpu[k] += v
			samples += v
		}
	}
	m := map[string]measure{}
	e := fromSamples(epochs)
	m["core.epoch_ms_p50"] = e
	e.value = pctOf(epochs, 90)
	m["core.epoch_ms_p90"] = e
	m["core.barrier_wait_ms"] = fromSamples(waits)
	sum := 0.0
	for _, b := range cpuBuckets {
		f := ratio(float64(cpu[b]), float64(samples))
		m["cpu."+b+"_frac"] = measure{value: f, q1: f, q3: f, n: int(samples)}
		sum += f
	}
	fmt.Printf("cpu shares sum to %.6f over %d samples; mean diff %.0f bytes over %d diffs\n",
		sum, samples, ratio(float64(diffBytes), float64(diffs)), diffs)
	return m
}
