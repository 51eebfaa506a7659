package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"godsm"
	"godsm/internal/apps"
	"godsm/internal/kvload"
	"godsm/internal/sim"
	"godsm/internal/transport"
	"godsm/internal/vm"
	"godsm/internal/wire"
)

// The micros time calls into one layer's public functions from outside,
// each repeated microReps times so the figure is a median.
const microReps = 9

// stencilDiffBytes is stencil-sim's mean diff payload (bytes per
// diff-create event over one pass), rounded to whole words; the vm micros
// diff pages at this size on every workload so their figures compare.
const stencilDiffBytes = 3744

// sinkF64 keeps the accessor sweeps' results live.
var sinkF64 float64

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// perOp times n calls of fn, microReps times, and returns ns per call.
func perOp(n int, fn func()) []float64 {
	out := make([]float64, 0, microReps)
	for r := 0; r < microReps; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		out = append(out, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return out
}

// microSim ping-pongs a message between two procs of a fresh sequential
// DES kernel: every message is one Send, one kernel delivery and one
// goroutine handoff to the receiver.
func microSim() (ns, allocs measure, err error) {
	const rounds = 20000
	var nsS, allocS []float64
	payload := &struct{}{}
	for r := 0; r < microReps; r++ {
		k := sim.NewKernel()
		k.Spawn("ping", func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				p.Send(1, 0, payload)
				p.Recv()
			}
		})
		k.Spawn("pong", func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				p.Recv()
				p.Send(0, 0, payload)
			}
		})
		m0, t0 := mallocs(), time.Now()
		if err := k.Run(); err != nil {
			return ns, allocs, fmt.Errorf("sim ping-pong: %w", err)
		}
		wall, m1 := time.Since(t0), mallocs()
		nsS = append(nsS, float64(wall.Nanoseconds())/(2*rounds))
		allocS = append(allocS, float64(m1-m0)/(2*rounds))
	}
	return fromSamples(nsS), fromSamples(allocS), nil
}

// microAccessors sweeps F64Array.Set then Get over a barnes-sized segment
// under the sequential protocol, so every access takes the checked fast
// path with no protocol work.
func microAccessors() (get, set measure, err error) {
	seg := apps.Barnes(apps.BarnesDefault()).SegmentBytes
	n := seg / 8
	var gets, sets []float64
	_, err = godsm.RunWith(func(p *godsm.Proc) {
		a := p.AllocF64(n)
		for i := 0; i < n; i++ {
			a.Set(i, 0)
		}
		for r := 0; r < microReps; r++ {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				a.Set(i, float64(i))
			}
			sets = append(sets, float64(time.Since(t0).Nanoseconds())/float64(n))
			t0 = time.Now()
			s := 0.0
			for i := 0; i < n; i++ {
				s += a.Get(i)
			}
			gets = append(gets, float64(time.Since(t0).Nanoseconds())/float64(n))
			sinkF64 += s
		}
	}, godsm.WithProtocol(godsm.Seq), godsm.WithSegmentBytes(seg))
	if err != nil {
		return get, set, fmt.Errorf("accessor sweep: %w", err)
	}
	return fromSamples(gets), fromSamples(sets), nil
}

// microVM times twin creation (make plus discard, which recycles the
// buffer), MakeDiff and ApplyDiff on one 8 KiB page whose first
// stencilDiffBytes bytes changed.
func microVM() (twin, mk, apply measure) {
	const page, n = 8192, 2000
	as := vm.NewAddressSpace(page, page)
	old, cur := make([]byte, page), make([]byte, page)
	for i := 0; i < stencilDiffBytes; i++ {
		cur[i] = byte(i) | 1
	}
	d := vm.MakeDiff(0, old, cur)
	twin = fromSamples(perOp(n, func() { as.MakeTwin(0); as.DiscardTwin(0) }))
	mk = fromSamples(perOp(n, func() { d = vm.MakeDiff(0, old, cur) }))
	apply = fromSamples(perOp(n, func() { as.ApplyDiff(d) }))
	return twin, mk, apply
}

// wireFrame is one frame of the codec micro.
type wireFrame struct {
	h    wire.Header
	data any
}

// wireFrames are the codec micro's frames: an 8 KiB page reply and a
// two-diff update flush.
func wireFrames() []wireFrame {
	old, cur := make([]byte, 8192), make([]byte, 8192)
	for i := 0; i < len(cur); i += 512 {
		cur[i] = byte(i/512 + 1)
	}
	return []wireFrame{
		{wire.Header{Kind: wire.KindPageRep, FromNode: 1, Reply: true, Size: 8192},
			&wire.PageRep{Page: 5, Data: cur, Version: 3, Absorbed: []int{1, 2}}},
		{wire.Header{Kind: wire.KindUpdateFlush, FromNode: 2, FromPort: 1, Size: 64, Rid: 9, Orig: 2},
			&wire.UpdateFlush{Epoch: 4, Diffs: []wire.DiffMsg{
				{Notice: wire.WriteNotice{Page: 3, Creator: 1, Epoch: 4}, Diff: vm.MakeDiff(3, old, cur)},
				{Notice: wire.WriteNotice{Page: 7, Creator: 2, Epoch: 4}, Diff: vm.MakeDiff(7, old, cur)},
			}}},
	}
}

// microWire times AppendFrame into a reused buffer and DecodeFrame, per
// frame averaged over wireFrames, and counts allocations per encode plus
// decode.
func microWire() (enc, dec, allocs measure, err error) {
	const n = 2000
	frames := wireFrames()
	encoded := make([][]byte, len(frames))
	for i, f := range frames {
		if encoded[i], err = wire.AppendFrame(nil, &f.h, f.data); err != nil {
			return enc, dec, allocs, fmt.Errorf("wire encode: %w", err)
		}
	}
	buf := make([]byte, 0, 16<<10)
	var encS, decS, allocS []float64
	for r := 0; r < microReps; r++ {
		m0 := mallocs()
		var encNs, decNs float64
		for i, f := range frames {
			t0 := time.Now()
			for j := 0; j < n; j++ {
				if buf, err = wire.AppendFrame(buf[:0], &f.h, f.data); err != nil {
					return enc, dec, allocs, fmt.Errorf("wire encode: %w", err)
				}
			}
			encNs += float64(time.Since(t0).Nanoseconds())
			t0 = time.Now()
			for j := 0; j < n; j++ {
				if _, _, _, err = wire.DecodeFrame(encoded[i]); err != nil {
					return enc, dec, allocs, fmt.Errorf("wire decode: %w", err)
				}
			}
			decNs += float64(time.Since(t0).Nanoseconds())
		}
		frames := float64(n * len(frames))
		encS, decS = append(encS, encNs/frames), append(decS, decNs/frames)
		allocS = append(allocS, float64(mallocs()-m0)/frames)
	}
	return fromSamples(encS), fromSamples(decS), fromSamples(allocS), nil
}

// microTransport bounces a page-reply frame carrying size payload bytes
// between two endpoints of a fresh udp transport and returns each round
// trip in microseconds. A ping lost by the kernel is sent again.
func microTransport(size, pings int) ([]float64, error) {
	tr, err := transport.New(transport.KindUDP, 2, 2)
	if err != nil {
		return nil, fmt.Errorf("udp transport: %w", err)
	}
	defer tr.Close()
	a, b := transport.Addr{Node: 0}, transport.Addr{Node: 1}
	back := make(chan []byte, 1) // the one ping in flight
	err = tr.Start(func(to transport.Addr, frame []byte) {
		if to == b {
			_ = tr.Send(b, a, frame) // a failed echo shows as a lost ping
			return
		}
		select {
		case back <- frame:
		default:
		}
	})
	if err != nil {
		return nil, fmt.Errorf("udp transport: %w", err)
	}
	rep := &wire.PageRep{Data: make([]byte, size)}
	h := wire.Header{Kind: wire.KindPageRep, Reply: true, Size: size}
	var frame []byte
	rtts := make([]float64, 0, pings)
	for i := 0; i < pings; i++ {
		rep.Version = uint32(i)
		if frame, err = wire.AppendFrame(frame[:0], &h, rep); err != nil {
			return nil, fmt.Errorf("udp ping frame: %w", err)
		}
		rtt, err := pingOnce(tr, a, b, frame, back)
		if err != nil {
			return nil, err
		}
		rtts = append(rtts, float64(rtt.Nanoseconds())/1e3)
	}
	return rtts, nil
}

// pingOnce sends frame from a to b until its echo returns, at most three
// times; echoes of earlier pings are skipped.
func pingOnce(tr transport.Transport, a, b transport.Addr, frame []byte, back chan []byte) (time.Duration, error) {
	for try := 0; try < 3; try++ {
		t0 := time.Now()
		if err := tr.Send(a, b, frame); err != nil {
			return 0, fmt.Errorf("udp ping: %w", err)
		}
		timeout := time.After(200 * time.Millisecond)
		for waiting := true; waiting; {
			select {
			case got := <-back:
				if bytes.Equal(got, frame) {
					return time.Since(t0), nil
				}
			case <-timeout:
				waiting = false
			}
		}
	}
	return 0, fmt.Errorf("udp ping: %d-byte frame lost three times", len(frame))
}

// microKVLoad times NewSampler over the workload's key space and
// Stream.Next over one kv run's traffic, regenerated once per node as the
// kv app does.
func microKVLoad(cfg apps.KVConfig, nodes int) (build, next measure, err error) {
	var builds []float64
	var s *kvload.Sampler
	for r := 0; r < microReps; r++ {
		t0 := time.Now()
		if s, err = kvload.NewSampler(cfg.Keys, cfg.Dist); err != nil {
			return build, next, fmt.Errorf("kv sampler: %w", err)
		}
		builds = append(builds, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	perStream := kvOpsPerRun(cfg) / cfg.Streams
	var nexts []float64
	var keys uint64
	for node := 0; node < nodes; node++ {
		for j := 0; j < cfg.Streams; j++ {
			t0 := time.Now()
			st := kvload.NewStream(s, cfg.Mix, cfg.Seed, j)
			for i := 0; i < perStream; i++ {
				keys += uint64(st.Next().Key)
			}
			nexts = append(nexts, float64(time.Since(t0).Nanoseconds())/float64(perStream))
		}
	}
	sinkF64 += float64(keys)
	return fromSamples(builds), fromSamples(nexts), nil
}
