package apps

import (
	"strings"
	"testing"

	"godsm/internal/check"
	"godsm/internal/core"
	"godsm/internal/kvload"
	"godsm/internal/metrics"
	"godsm/internal/netsim"
	"godsm/internal/sim"
)

// kvTestConfig is KVSmall trimmed for unit-test latency.
func kvTestConfig() KVConfig {
	cfg := KVSmall()
	cfg.Ops = 20_000
	return cfg
}

// TestKVAgreesWithSequential is the central property for the datastore
// workload: every protocol at every cluster size computes a final
// bucket state and read digest bit-identical to the uniprocessor run,
// even though streams are partitioned differently at each size.
func TestKVAgreesWithSequential(t *testing.T) {
	app, err := KV(kvTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	seq, err := app.RunWith(1, core.ProtoSeq, RunOpts{})
	if err != nil {
		t.Fatalf("seq: %v", err)
	}
	if !seq.HasChecksum {
		t.Fatal("kv reports no checksum")
	}
	for _, proto := range core.Protocols() {
		for _, procs := range []int{2, 4} {
			r, err := app.RunWith(procs, proto, RunOpts{})
			if err != nil {
				t.Fatalf("%v/%d: %v", proto, procs, err)
			}
			if r.Checksum != seq.Checksum {
				t.Errorf("%v/%d procs: checksum %#x, want %#x", proto, procs, r.Checksum, seq.Checksum)
			}
		}
	}
}

// TestKVSmallGolden pins KVSmall's bar-u checksum and measured virtual
// elapsed time on 8 nodes. Both are pure functions of the generated
// traffic, so a sampler change that perturbs any key — or anything else
// that moves the protocol's virtual clock — fails here even when every
// protocol still agrees with the sequential run.
func TestKVSmallGolden(t *testing.T) {
	const (
		wantSum     = uint64(0x3bf70608a784e4ac)
		wantElapsed = sim.Duration(6632820)
	)
	app, err := KV(KVSmall())
	if err != nil {
		t.Fatal(err)
	}
	r, err := app.RunWith(8, core.ProtoBarU, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Checksum != wantSum {
		t.Errorf("checksum %#016x, want %#016x", r.Checksum, wantSum)
	}
	if r.Elapsed != wantElapsed {
		t.Errorf("elapsed %d ns, want %d ns", int64(r.Elapsed), int64(wantElapsed))
	}
}

// TestKVConformSmall adds kv to the differential conformance coverage:
// all six protocols, fault-free, under a seeded loss plan and across an
// in-place crash-restart, each held to the sequential reference's
// per-epoch images and final bucket checksums with the oracle attached.
func TestKVConformSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance sweep is minutes of simulation in -short mode")
	}
	app, err := KV(kvTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	protos := core.Protocols()
	crash := &netsim.FaultPlan{
		Seed:    7,
		Crashes: []netsim.CrashRule{{Node: 2, Epoch: 3, RestartAfter: 0}},
	}
	res, err := check.Differential(app.Body, check.Options{
		Procs:        4,
		SegmentBytes: app.SegmentBytes,
		Protocols:    protos,
		Seeds:        []int64{1},
		Plans:        []*netsim.FaultPlan{crash},
	})
	if err != nil {
		t.Fatalf("%v\n%s", err, res.Report)
	}
	if want := 1 + len(protos)*3; len(res.Runs) != want {
		t.Fatalf("ran %d runs, want %d", len(res.Runs), want)
	}
}

// TestKVLocksMode: with per-shard locks the apply phase brackets each
// owned shard in Acquire/Release under the homeless protocols, and the
// final state is unchanged — the store still serves the same bytes.
func TestKVLocksMode(t *testing.T) {
	plain, err := KV(kvTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	seq, err := plain.RunWith(1, core.ProtoSeq, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	locked := kvTestConfig()
	locked.Locks = true
	app, err := KV(locked)
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range []core.ProtocolKind{core.ProtoLmwI, core.ProtoLmwU} {
		r, err := app.RunWith(4, proto, RunOpts{})
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if r.Checksum != seq.Checksum {
			t.Errorf("%v with locks: checksum %#x, want %#x", proto, r.Checksum, seq.Checksum)
		}
		if r.Total.LockAcquires == 0 {
			t.Errorf("%v with locks: no lock acquires recorded", proto)
		}
	}
	// The home-based protocols are barrier-only; the engine must reject
	// the lock primitives rather than mishandle them.
	if _, err := app.RunWith(4, core.ProtoBarU, RunOpts{}); err == nil {
		t.Error("bar-u accepted per-shard locks")
	}
}

// TestKVBackendParity holds one protocol's kv checksum bit-identical
// across the simulator and the three real transports; the full
// protocol × backend × skew matrix is `repro datastore`.
func TestKVBackendParity(t *testing.T) {
	if testing.Short() {
		t.Skip("real-transport runs in -short mode")
	}
	app, err := KV(kvTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := app.RunWith(4, core.ProtoBarU, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []string{"mem", "udp", "tcp"} {
		r, err := app.RunWith(4, core.ProtoBarU, RunOpts{Transport: tr})
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if r.Checksum != ref.Checksum {
			t.Errorf("%s: checksum %#x, sim has %#x", tr, r.Checksum, ref.Checksum)
		}
	}
}

// TestKVLayout pins the shard→page mapping invariants the design doc
// documents: stamps own word 0 of every page, every key gets a unique
// non-stamp word inside its shard's page range, and hotter keys sit on
// earlier pages of their shard.
func TestKVLayout(t *testing.T) {
	cfg := kvTestConfig()
	for _, pageSize := range []int{4096, 8192, 65536} {
		lay := newKVLayout(cfg, pageSize)
		wpp := pageSize / 8
		if lay.wordsPerPage != wpp {
			t.Fatalf("ps=%d: wordsPerPage %d", pageSize, lay.wordsPerPage)
		}
		if lay.pages*pageSize > kvSegmentBytes(cfg) {
			t.Fatalf("ps=%d: layout (%d pages) exceeds segment %d", pageSize, lay.pages, kvSegmentBytes(cfg))
		}
		seen := make(map[int]bool, cfg.Keys)
		for k := 0; k < cfg.Keys; k++ {
			w := lay.keyWord(uint32(k))
			if w%wpp == 0 {
				t.Fatalf("ps=%d: key %d landed on a stamp word", pageSize, k)
			}
			if w < 0 || w >= lay.pages*wpp {
				t.Fatalf("ps=%d: key %d word %d out of segment", pageSize, k, w)
			}
			if seen[w] {
				t.Fatalf("ps=%d: key %d collides at word %d", pageSize, k, w)
			}
			seen[w] = true
			sh := int(lay.keyShard[k])
			pg := w / wpp
			if pg < int(lay.shardPage[sh]) || pg >= int(lay.shardPage[sh]+lay.shardPages[sh]) {
				t.Fatalf("ps=%d: key %d (shard %d) on page %d outside shard range", pageSize, k, sh, pg)
			}
		}
		// Rank locality: within any shard, a lower-ranked (hotter) key
		// never sits on a later page than a higher-ranked one.
		lastPage := make([]int, cfg.Shards)
		for k := 0; k < cfg.Keys; k++ {
			sh := int(lay.keyShard[k])
			pg := lay.keyWord(uint32(k)) / wpp
			if pg < lastPage[sh] {
				t.Fatalf("ps=%d: shard %d rank order broken at key %d", pageSize, sh, k)
			}
			lastPage[sh] = pg
		}
	}
}

func TestKVValidate(t *testing.T) {
	mutate := []struct {
		name string
		f    func(*KVConfig)
	}{
		{"keys=0", func(c *KVConfig) { c.Keys = 0 }},
		{"shards=0", func(c *KVConfig) { c.Shards = 0 }},
		{"shards>keys", func(c *KVConfig) { c.Shards = c.Keys + 1 }},
		{"streams=0", func(c *KVConfig) { c.Streams = 0 }},
		{"ops<0", func(c *KVConfig) { c.Ops = -1 }},
		{"warm<3", func(c *KVConfig) { c.Warm = 2 }},
		{"measure=0", func(c *KVConfig) { c.Measure = 0 }},
		{"stats=0", func(c *KVConfig) { c.StatsEvery = 0 }},
		{"opcost<0", func(c *KVConfig) { c.OpCost = -1 }},
		{"zipf<0", func(c *KVConfig) { c.Dist = kvload.Dist{Kind: kvload.DistZipf, S: -1} }},
		{"write>1", func(c *KVConfig) { c.Mix.Write = 1.5 }},
	}
	for _, m := range mutate {
		cfg := kvTestConfig()
		m.f(&cfg)
		if _, err := KV(cfg); err == nil {
			t.Errorf("%s: KV accepted the config", m.name)
		}
	}
	if _, err := KV(KVDefault()); err != nil {
		t.Errorf("KVDefault rejected: %v", err)
	}
	if _, err := KV(KVSmall()); err != nil {
		t.Errorf("KVSmall rejected: %v", err)
	}
}

// TestKVMetrics runs a small cluster with the kv registry attached and
// checks the workload-level series populate.
func TestKVMetrics(t *testing.T) {
	cfg := kvTestConfig()
	cfg.Mix = kvload.Mix{Write: 0.3, Scan: 0.1, ScanLen: 8}
	cfg.Metrics = metrics.New()
	app, err := KV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.RunWith(2, core.ProtoBarU, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	r := cfg.Metrics
	for _, kind := range []string{"get", "put", "scan"} {
		if n := r.Counter("godsm_kv_ops_total", "", "kind", kind).Value(); n == 0 {
			t.Errorf("godsm_kv_ops_total{kind=%q} = 0", kind)
		}
		if n := r.Histogram("godsm_kv_op_virtual_us", "", nil, "kind", kind).Count(); kind != "put" && n == 0 {
			t.Errorf("godsm_kv_op_virtual_us{kind=%q} empty", kind)
		}
	}
	if r.Gauge("godsm_kv_hot_page_ops", "", "op", "write").Value() == 0 {
		t.Error("hot write page gauge unset")
	}
	if r.Gauge("godsm_kv_throughput_ops_per_sec", "").Value() == 0 {
		t.Error("throughput gauge unset")
	}
	if r.Gauge("godsm_kv_served_total", "").Value() == 0 {
		t.Error("served gauge unset")
	}
}

// TestNamesAndByName pins the satellite: ByName resolves kv, and the
// unknown-name error lists the valid set, matching transport.Lookup's
// failure shape.
func TestNamesAndByName(t *testing.T) {
	names := Names()
	if len(names) != 9 || names[len(names)-1] != "kv" {
		t.Fatalf("Names() = %v, want the eight paper apps plus kv", names)
	}
	a, err := ByName("kv")
	if err != nil || a.Name != "kv" {
		t.Fatalf("ByName(kv) = %v, %v", a, err)
	}
	_, err = ByName("memcached")
	if err == nil {
		t.Fatal("ByName accepted an unknown app")
	}
	for _, want := range names {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-app error %q does not list %q", err, want)
		}
	}
}
