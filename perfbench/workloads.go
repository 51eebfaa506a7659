package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"godsm/internal/apps"
	"godsm/internal/core"
	"godsm/internal/kvload"
	"godsm/internal/trace"
)

// workloadNames lists the benchmark's workloads; BENCHMARK.json records
// why each was chosen.
var workloadNames = []string{"stencil-sim", "barnes-sim", "kv-sim", "udp-loopback"}

// cell is one DSM run of a pass: one app under one protocol, cluster size
// and transport.
type cell struct {
	name      string // app/protocol, plus @transport for a real one
	app       *apps.App
	procs     int
	proto     core.ProtocolKind
	transport string // "" runs the sequential discrete-event kernel
	kvOps     int    // kv operations one run completes; 0 for other apps
}

// realtime reports whether the cell runs on the wall-clock kernel over a
// real transport rather than on the virtual clock.
func (c cell) realtime() bool { return c.transport != "" }

// buildCells constructs workload wl's apps. The kv traffic seed is the only
// input seed reaches: the stencil and barnes apps run fixed problem sizes.
// The returned kv config is the workload's kv traffic, or the default
// traffic for workloads without a kv cell (the kvload micro runs it).
func buildCells(wl string, seed uint64) ([]cell, apps.KVConfig, error) {
	kvCfg := apps.KVDefault()
	kvCfg.Seed = seed
	sim := func(a *apps.App, proto core.ProtocolKind) cell {
		return cell{name: a.Name + "/" + proto.String(), app: a, procs: 8, proto: proto}
	}
	switch wl {
	case "stencil-sim":
		fft, swm := apps.FFT(apps.FFTDefault()), apps.SWM(apps.SWMDefault())
		return []cell{
			sim(fft, core.ProtoLmwI), sim(fft, core.ProtoBarU),
			sim(swm, core.ProtoLmwI), sim(swm, core.ProtoBarU),
		}, kvCfg, nil
	case "barnes-sim":
		return []cell{sim(apps.Barnes(apps.BarnesDefault()), core.ProtoBarU)}, kvCfg, nil
	case "kv-sim":
		kvCfg.Mix = kvload.Mix{Write: 0.95, ScanLen: 16}
		kv, err := apps.KV(kvCfg)
		if err != nil {
			return nil, kvCfg, err
		}
		c := sim(kv, core.ProtoBarU)
		c.kvOps = kvOpsPerRun(kvCfg)
		return []cell{c}, kvCfg, nil
	case "udp-loopback":
		kv, err := apps.KV(kvCfg)
		if err != nil {
			return nil, kvCfg, err
		}
		udp := func(a *apps.App) cell {
			return cell{name: a.Name + "/bar-u@udp", app: a, procs: 2, proto: core.ProtoBarU, transport: "udp"}
		}
		fftCell, kvCell := udp(apps.FFT(apps.FFTDefault())), udp(kv)
		kvCell.kvOps = kvOpsPerRun(kvCfg)
		return []cell{fftCell, kvCell}, kvCfg, nil
	}
	return nil, kvCfg, fmt.Errorf("unknown workload %q (have %s)", wl, strings.Join(workloadNames, ", "))
}

// kvOpsPerRun is the number of operations a kv run completes: each stream
// issues Ops/(Streams*epochs) ops per epoch and the remainder is dropped
// (apps.KVConfig.Ops).
func kvOpsPerRun(cfg apps.KVConfig) int {
	epochs := cfg.Warm + cfg.Measure
	return cfg.Ops / (cfg.Streams * epochs) * cfg.Streams * epochs
}

// setup is everything a pass needs before it can run and be checked: the
// built apps, each app's sequential baseline (reference checksum and
// speedup denominator) and, for each real-transport cell, the same cell
// on the virtual clock.
type setup struct {
	cells []cell
	kv    apps.KVConfig
	seq   map[string]*core.Report // by app name
	twin  map[string]*core.Report // by cell name; real-transport cells only
}

// runSetup builds workload wl and runs its baselines.
func runSetup(ctx context.Context, wl string, seed uint64, sp *spanLog, parent int) (*setup, error) {
	span := sp.begin("build", parent, -1)
	cells, kv, err := buildCells(wl, seed)
	sp.end(span)
	if err != nil {
		return nil, err
	}
	st := &setup{cells: cells, kv: kv, seq: map[string]*core.Report{}, twin: map[string]*core.Report{}}
	span = sp.begin("seq_baseline", parent, -1)
	for _, c := range cells {
		if st.seq[c.app.Name] != nil {
			continue
		}
		rep, err := runCell(ctx, c.app, 1, core.ProtoSeq, "", nil)
		if err != nil {
			return nil, fmt.Errorf("%s sequential baseline: %w", c.app.Name, err)
		}
		st.seq[c.app.Name] = rep
	}
	sp.end(span)
	span = sp.begin("sim_twin", parent, -1)
	for _, c := range cells {
		if !c.realtime() {
			continue
		}
		rep, err := runCell(ctx, c.app, c.procs, c.proto, "", nil)
		if err != nil {
			return nil, fmt.Errorf("%s sim twin: %w", c.name, err)
		}
		st.twin[c.name] = rep
	}
	sp.end(span)
	return st, nil
}

// cellTimeout bounds one DSM run; the longest cell takes about 3 s on a
// 2-core x86-64 host.
const cellTimeout = 60 * time.Second

// runCell runs one app. A non-nil sink receives the run's protocol events
// and switches on the per-epoch timeline.
func runCell(ctx context.Context, a *apps.App, procs int, proto core.ProtocolKind, transport string, sink trace.Sink) (*core.Report, error) {
	ctx, cancel := context.WithTimeout(ctx, cellTimeout)
	defer cancel()
	opts := apps.RunOpts{Transport: transport}
	if sink != nil {
		opts.Sinks = []trace.Sink{sink}
		opts.Timeline = true
	}
	return a.RunWithContext(ctx, procs, proto, opts)
}
