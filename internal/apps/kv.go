package apps

import (
	"fmt"

	"godsm/internal/core"
	"godsm/internal/kvload"
	"godsm/internal/metrics"
	"godsm/internal/sim"
)

// The kv application is the datastore-shaped workload: a replicated
// key-value store laid out as hash-sharded buckets over shared DSM
// pages, driven by kvload's deterministic synthetic traffic. It is the
// deliberate opposite of the paper's stencil kernels — sharing is
// irregular and hot-keyed rather than block-contiguous — which is the
// regime where the datastore literature predicts the update-vs-
// invalidate verdict flips.
//
// Structure per epoch (two barriers, so BarriersPerIter = 2):
//
//	phase 1 (serve):  every node executes the get/scan ops of its
//	                  assigned streams against the store, folding the
//	                  values it reads into a digest;
//	barrier;
//	phase 2 (apply):  every shard's owner applies all streams' puts
//	                  targeting that shard in canonical (stream, op)
//	                  order, and bumps the per-page epoch stamp on each
//	                  page it owns;
//	barrier (a "stats epoch" every StatsEvery epochs: the closing
//	barrier carries a RedSum reduction of op counters, so cluster-wide
//	stats cost zero extra messages).
//
// Ownership is deterministic (owner(shard) = shard mod procs) and
// writes happen only in phase 2, so reads and writes to the same page
// are always separated by a barrier: the workload is race-free under
// lazy release consistency without any locking, every node's reads are
// protocol-visible (a stale page served to phase 1 changes the digest
// and fails conformance), and the final store state is independent of
// how streams are partitioned — the uniprocessor run is bit-identical.
//
// The per-page stamp doubles as the version metadata a real replicated
// store maintains; because owners bump it every epoch, every owned
// page is written every epoch, which keeps the page-level write set
// static and the overdrive protocols (bar-s/bar-m) legal even though
// the zipfian put set wanders. kv is therefore not Dynamic.
//
// With Locks set, the owner additionally brackets each owned shard's
// phase-2 application in Acquire/Release of the shard's lock. This is
// meaningful only under the homeless (lmw) protocols — the home-based
// barrier protocols reject lock primitives by design — and models a
// datastore's per-partition latching; the store's final state is
// unchanged, so checksums stay comparable across modes.
type KVConfig struct {
	// Keys is the key-space size. Key k is popularity rank k: rank 0 is
	// the hottest key under every skewed distribution.
	Keys int
	// Shards is the hash-shard (bucket) count; owner(shard) = shard mod
	// procs interleaves shards across nodes, so the block-distributed
	// initial page homes are mostly wrong and home migration earns its
	// keep (or its absence costs — see the repro datastore home column).
	Shards int
	// Streams is the open-loop request-stream count. Streams are
	// assigned to nodes round-robin; the count is fixed in the config
	// (not derived from procs) so the generated traffic — and the final
	// store state — is identical at every cluster size.
	Streams int
	// Ops is the total operation budget across all streams and epochs;
	// each stream issues Ops/(Streams*(Warm+Measure)) ops per epoch
	// (the remainder is dropped). 0 is legal: the epochs then carry
	// only stamp maintenance.
	Ops int
	// Warm, Measure are the uninstrumented and measured epoch counts.
	Warm, Measure int
	// Dist is the key-popularity distribution.
	Dist kvload.Dist
	// Mix is the get/put/scan request mix.
	Mix kvload.Mix
	// Seed seeds the traffic generator.
	Seed uint64
	// StatsEvery is the stats-epoch period: every StatsEvery epochs the
	// closing barrier carries the cluster-wide op-counter reduction.
	StatsEvery int
	// Locks brackets each shard's phase-2 application in per-shard
	// Acquire/Release (lmw protocols only; see above).
	Locks bool
	// OpCost is the modeled compute time per point op; scans charge
	// OpCost plus OpCost/4 per additional slot.
	OpCost sim.Duration
	// Metrics, when non-nil, records per-op latency/throughput and
	// hot-page histograms under godsm_kv_* (nil-safe, zero cost when
	// unset; separate from RunOpts.Metrics, which instruments the
	// protocol engine).
	Metrics *metrics.Registry
}

// KVDefault is the full-size datastore workload: 64 Ki keys in 64
// shards, one million ops.
func KVDefault() KVConfig {
	return KVConfig{
		Keys: 1 << 16, Shards: 64, Streams: 16, Ops: 1_000_000,
		Warm: 3, Measure: 4,
		Dist: kvload.Dist{Kind: kvload.DistZipf, S: 0.99},
		Mix:  kvload.DefaultMix(),
		Seed: 1, StatsEvery: 2, OpCost: 2 * sim.Microsecond,
	}
}

// KVSmall is the reduced variant for fast tests.
func KVSmall() KVConfig {
	return KVConfig{
		Keys: 1 << 11, Shards: 16, Streams: 8, Ops: 40_000,
		Warm: 3, Measure: 3,
		Dist: kvload.Dist{Kind: kvload.DistZipf, S: 0.99},
		Mix:  kvload.DefaultMix(),
		Seed: 1, StatsEvery: 2, OpCost: 500 * sim.Nanosecond,
	}
}

// Validate checks the configuration.
func (cfg KVConfig) Validate() error {
	if cfg.Keys < 1 {
		return fmt.Errorf("apps: kv: %d keys out of range (want >= 1)", cfg.Keys)
	}
	if cfg.Keys > 1<<24 {
		return fmt.Errorf("apps: kv: %d keys out of range (want <= %d)", cfg.Keys, 1<<24)
	}
	if cfg.Shards < 1 || cfg.Shards > cfg.Keys {
		return fmt.Errorf("apps: kv: %d shards out of range (want 1..keys=%d)", cfg.Shards, cfg.Keys)
	}
	if cfg.Streams < 1 || cfg.Streams > 1<<12 {
		return fmt.Errorf("apps: kv: %d streams out of range (want 1..%d)", cfg.Streams, 1<<12)
	}
	if cfg.Ops < 0 {
		return fmt.Errorf("apps: kv: op budget %d out of range (want >= 0)", cfg.Ops)
	}
	if cfg.Warm < 3 {
		return fmt.Errorf("apps: kv: %d warm epochs out of range (want >= 3: init, home migration and overdrive learning)", cfg.Warm)
	}
	if cfg.Measure < 1 {
		return fmt.Errorf("apps: kv: %d measured epochs out of range (want >= 1)", cfg.Measure)
	}
	if cfg.StatsEvery < 1 {
		return fmt.Errorf("apps: kv: stats period %d out of range (want >= 1)", cfg.StatsEvery)
	}
	if cfg.OpCost < 0 {
		return fmt.Errorf("apps: kv: op cost %v out of range (want >= 0)", cfg.OpCost)
	}
	if err := cfg.Dist.Validate(); err != nil {
		return err
	}
	return cfg.Mix.Validate()
}

// kvLayout maps keys to (shard, slot, page) for one page size. Every
// node computes the same layout from the config alone, so addresses
// never need to be communicated.
//
// Pages are grouped shard-major: shard s occupies pages
// [shardPage[s], shardPage[s]+shardPages[s]), and word 0 of every page
// is the epoch stamp, leaving wordsPerPage-1 slots. Within a shard,
// slots are assigned in ascending key order — and key order is
// popularity order — so a shard's hottest keys cluster on its first
// page and the key-level skew survives at page granularity, the way a
// real store's order-preserving partition layout keeps hot ranges
// physically clustered.
type kvLayout struct {
	wordsPerPage int
	keyShard     []int32
	keySlot      []int32
	shardKeys    []int32
	shardPage    []int32
	shardPages   []int32
	pages        int
}

// kvShardOf hashes a key to its shard.
func kvShardOf(key uint32, shards int) int {
	return int(kvload.Mix64(uint64(key)) >> 32 % uint64(shards))
}

// kvShardKeys counts keys per shard (the page-size-independent half of
// the layout).
func kvShardKeys(keys, shards int) []int32 {
	counts := make([]int32, shards)
	for k := 0; k < keys; k++ {
		counts[kvShardOf(uint32(k), shards)]++
	}
	return counts
}

func newKVLayout(cfg KVConfig, pageSize int) *kvLayout {
	l := &kvLayout{
		wordsPerPage: pageSize / 8,
		keyShard:     make([]int32, cfg.Keys),
		keySlot:      make([]int32, cfg.Keys),
		shardKeys:    make([]int32, cfg.Shards),
		shardPage:    make([]int32, cfg.Shards),
		shardPages:   make([]int32, cfg.Shards),
	}
	slots := l.wordsPerPage - 1
	for k := 0; k < cfg.Keys; k++ {
		sh := kvShardOf(uint32(k), cfg.Shards)
		l.keyShard[k] = int32(sh)
		l.keySlot[k] = l.shardKeys[sh]
		l.shardKeys[sh]++
	}
	for sh := 0; sh < cfg.Shards; sh++ {
		n := (int(l.shardKeys[sh]) + slots - 1) / slots
		if n == 0 {
			n = 1 // a keyless shard still gets a stamp page
		}
		l.shardPage[sh] = int32(l.pages)
		l.shardPages[sh] = int32(n)
		l.pages += n
	}
	return l
}

// slotWord returns the store word index of slot i of shard sh.
func (l *kvLayout) slotWord(sh int, slot int32) int {
	spp := l.wordsPerPage - 1
	page := int(l.shardPage[sh]) + int(slot)/spp
	return page*l.wordsPerPage + 1 + int(slot)%spp
}

// keyWord returns the store word index of a key's slot.
func (l *kvLayout) keyWord(key uint32) int {
	return l.slotWord(int(l.keyShard[key]), l.keySlot[key])
}

// kvSegmentBytes sizes the shared segment so the layout fits at any
// page size a cost model might select (the layout's page count depends
// on the runtime page size through per-shard rounding).
func kvSegmentBytes(cfg KVConfig) int {
	shardKeys := kvShardKeys(cfg.Keys, cfg.Shards)
	max := 0
	for ps := 512; ps <= 1<<16; ps <<= 1 {
		slots := ps/8 - 1
		pages := 0
		for _, n := range shardKeys {
			p := (int(n) + slots - 1) / slots
			if p == 0 {
				p = 1
			}
			pages += p
		}
		if b := pages * ps; b > max {
			max = b
		}
	}
	return max
}

// kvValue derives the value a put stores: a pure function of (key,
// epoch, stream, op index), all partition-independent, so the final
// store state cannot depend on the cluster size.
func kvValue(key uint32, epoch, stream, op int) int64 {
	return int64(kvload.Mix64(uint64(key)<<32 ^ uint64(epoch)<<44 ^ uint64(stream)<<22 ^ uint64(op)))
}

// kvFold mixes one read observation into a node's digest. XOR-combining
// makes the fold order irrelevant, so the digest too is independent of
// how streams are partitioned.
func kvFold(digest uint64, v int64, epoch, stream, op, slot int) uint64 {
	return digest ^ kvload.Mix64(uint64(v)+kvload.Mix64(uint64(epoch)<<44^uint64(stream)<<32^uint64(op)<<12^uint64(slot)))
}

// kvPut is one pending phase-2 application.
type kvPut struct {
	word int
	val  int64
}

// KV builds the datastore workload application.
func KV(cfg KVConfig) (*App, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// One read-only sampler (the zipf CDF and its guide table) serves
	// every node's streams; each node still regenerates the streams.
	sampler, err := kvload.NewSampler(cfg.Keys, cfg.Dist)
	if err != nil {
		return nil, err
	}
	epochs := cfg.Warm + cfg.Measure
	opsPerEpoch := cfg.Ops / (cfg.Streams * epochs)
	m := newKVMetrics(cfg.Metrics)
	return &App{
		Name: "kv",
		Description: fmt.Sprintf("sharded kv store, %d keys/%d shards, %s, %s",
			cfg.Keys, cfg.Shards, cfg.Dist, cfg.Mix),
		SegmentBytes:    kvSegmentBytes(cfg),
		Warm:            cfg.Warm,
		Measure:         cfg.Measure,
		BarriersPerIter: 2,
		Body: func(p *core.Proc) {
			np, me := p.NumProcs(), p.ID()
			lay := newKVLayout(cfg, p.PageSize())
			store := p.AllocI64(lay.pages * lay.wordsPerPage)

			ownShard := func(sh int) bool { return sh%np == me }
			// Per-page op counts for the hot-page metrics; writes are
			// counted by owners (which apply every put, so the counts
			// are global truth), reads locally by the serving node.
			writeOps := make([]int64, lay.pages)
			readOps := make([]int64, lay.pages)

			// The traffic: every node regenerates all streams from the
			// seed, so assignment is free to differ from application.
			streams := make([]*kvload.Stream, cfg.Streams)
			for j := range streams {
				streams[j] = kvload.NewStream(sampler, cfg.Mix, cfg.Seed, j)
			}
			epochOps := make([][]kvload.Op, cfg.Streams)
			for j := range epochOps {
				epochOps[j] = make([]kvload.Op, opsPerEpoch)
			}
			// Pending puts bucketed by owned shard, refilled each epoch
			// in canonical (stream, op) order.
			pending := make([][]kvPut, cfg.Shards)

			// Init epoch: owners stamp their pages, establishing the
			// single-writer ownership pattern before learning starts.
			for sh := 0; sh < cfg.Shards; sh++ {
				if !ownShard(sh) {
					continue
				}
				for pg := l32(lay.shardPage[sh]); pg < l32(lay.shardPage[sh]+lay.shardPages[sh]); pg++ {
					store.Set(pg*lay.wordsPerPage, 1)
				}
			}
			p.Barrier()

			var digest uint64
			var served, applied, scanned int64
			for e := 0; e < epochs; e++ {
				if e == cfg.Warm {
					p.StartMeasure()
				}
				for j := range streams {
					for i := range epochOps[j] {
						epochOps[j][i] = streams[j].Next()
					}
				}

				// Phase 1: serve reads for my streams.
				for j := me; j < cfg.Streams; j += np {
					for i, op := range epochOps[j] {
						if op.Kind == kvload.OpPut {
							continue
						}
						t0 := p.Now()
						sh := int(lay.keyShard[op.Key])
						if op.Kind == kvload.OpGet {
							w := lay.keyWord(op.Key)
							digest = kvFold(digest, store.Get(w), e, j, i, int(lay.keySlot[op.Key]))
							readOps[w/lay.wordsPerPage]++
							p.Charge(cfg.OpCost)
						} else {
							// Scan: op.Len consecutive slots within the
							// key's shard, wrapping — a short range
							// read inside one partition.
							n := l32(lay.shardKeys[sh])
							for t := 0; t < int(op.Len); t++ {
								slot := (int(lay.keySlot[op.Key]) + t) % n
								w := lay.slotWord(sh, int32(slot))
								digest = kvFold(digest, store.Get(w), e, j, i, slot)
								readOps[w/lay.wordsPerPage]++
							}
							scanned += int64(op.Len)
							p.Charge(cfg.OpCost + sim.Duration(op.Len-1)*cfg.OpCost/4)
						}
						served++
						m.observe(op.Kind, sim.Duration(p.Now()-t0))
					}
				}
				p.Barrier()

				// Phase 2: owners apply every stream's puts in canonical
				// (stream, op) order, then bump the page stamps.
				for j := range epochOps {
					for i, op := range epochOps[j] {
						if op.Kind != kvload.OpPut {
							continue
						}
						sh := int(lay.keyShard[op.Key])
						if !ownShard(sh) {
							continue
						}
						pending[sh] = append(pending[sh], kvPut{lay.keyWord(op.Key), kvValue(op.Key, e, j, i)})
					}
				}
				for sh := 0; sh < cfg.Shards; sh++ {
					if !ownShard(sh) {
						continue
					}
					if cfg.Locks {
						p.Acquire(sh)
					}
					t0 := p.Now()
					for _, put := range pending[sh] {
						store.Set(put.word, put.val)
						writeOps[put.word/lay.wordsPerPage]++
						p.Charge(cfg.OpCost)
					}
					applied += int64(len(pending[sh]))
					for pg := l32(lay.shardPage[sh]); pg < l32(lay.shardPage[sh]+lay.shardPages[sh]); pg++ {
						store.Set(pg*lay.wordsPerPage, int64(e+2))
					}
					if n := len(pending[sh]); n > 0 {
						m.observeApply(sim.Duration(p.Now()-t0), n)
					}
					pending[sh] = pending[sh][:0]
					if cfg.Locks {
						p.Release(sh)
					}
				}

				// Stats epoch: the closing barrier carries the op
				// counters, so cluster-wide stats are message-free.
				if (e+1)%cfg.StatsEvery == 0 {
					tot := p.Reduce(core.RedSum, []float64{float64(served), float64(applied), float64(scanned)})
					if me == 0 {
						m.stats(tot[0], tot[1], tot[2], p.Now())
					}
				} else {
					p.Barrier()
				}
				p.IterationBoundary()
			}
			p.StopMeasure()

			// Hot-page accounting, from the final counts.
			m.pages(writeOps, readOps)

			// Result: the owned buckets' state XOR the read digest.
			// Owned-page checksums tile the store disjointly and fold by
			// absolute position, and the digest is order-independent, so
			// the combined value matches the uniprocessor run bit for
			// bit — and a single stale read anywhere breaks it.
			var local uint64
			for sh := 0; sh < cfg.Shards; sh++ {
				if !ownShard(sh) {
					continue
				}
				lo := l32(lay.shardPage[sh]) * lay.wordsPerPage
				hi := lo + l32(lay.shardPages[sh])*lay.wordsPerPage
				local ^= store.Checksum(lo, hi)
			}
			finishChecksum(p, local^digest)
		},
	}, nil
}

// l32 is int32-to-int, keeping layout index arithmetic readable.
func l32(v int32) int { return int(v) }

// kvMetrics bundles the workload-level instruments. All methods are
// safe on the zero value backed by a nil registry.
type kvMetrics struct {
	ops     [3]*metrics.Counter
	lat     [3]*metrics.Histogram
	applyNs *metrics.Histogram
	pageOps *metrics.Histogram
	hotW    *metrics.Gauge
	hotR    *metrics.Gauge
	served  *metrics.Gauge
	thru    *metrics.Gauge
}

func newKVMetrics(r *metrics.Registry) *kvMetrics {
	m := &kvMetrics{}
	if r == nil {
		return m
	}
	for _, k := range []kvload.OpKind{kvload.OpGet, kvload.OpPut, kvload.OpScan} {
		m.ops[k] = r.Counter("godsm_kv_ops_total", "kv operations executed", "kind", k.String())
		m.lat[k] = r.Histogram("godsm_kv_op_virtual_us", "per-op virtual latency (µs)",
			metrics.ExpBuckets(1, 2, 16), "kind", k.String())
	}
	m.applyNs = r.Histogram("godsm_kv_apply_batch_us", "per-shard put-batch apply time (µs)",
		metrics.ExpBuckets(1, 2, 16))
	m.pageOps = r.Histogram("godsm_kv_page_ops", "per-page op counts at run end",
		metrics.ExpBuckets(1, 4, 12), "op", "write")
	m.hotW = r.Gauge("godsm_kv_hot_page_ops", "ops on the hottest page", "op", "write")
	m.hotR = r.Gauge("godsm_kv_hot_page_ops", "ops on the hottest page", "op", "read")
	m.served = r.Gauge("godsm_kv_served_total", "cluster-wide ops served, latest stats epoch")
	m.thru = r.Gauge("godsm_kv_throughput_ops_per_sec", "cluster ops/s of virtual time, latest stats epoch")
	return m
}

func (m *kvMetrics) observe(k kvload.OpKind, d sim.Duration) {
	m.ops[k].Inc()
	m.lat[k].Observe(float64(d) / 1e3)
}

func (m *kvMetrics) observeApply(d sim.Duration, n int) {
	m.ops[kvload.OpPut].Add(int64(n))
	m.applyNs.Observe(float64(d) / 1e3)
}

func (m *kvMetrics) stats(served, applied, scanned float64, now sim.Time) {
	m.served.Set(int64(served + applied))
	if now > 0 {
		m.thru.Set(int64((served + applied + scanned) / (float64(now) / 1e9)))
	}
}

func (m *kvMetrics) pages(writeOps, readOps []int64) {
	if m.pageOps == nil && m.hotW == nil {
		return
	}
	var maxW, maxR int64
	for pg := range writeOps {
		if writeOps[pg] > 0 {
			m.pageOps.Observe(float64(writeOps[pg]))
		}
		if writeOps[pg] > maxW {
			maxW = writeOps[pg]
		}
		if readOps[pg] > maxR {
			maxR = readOps[pg]
		}
	}
	if maxW > 0 {
		m.hotW.Set(maxW)
	}
	if maxR > 0 {
		m.hotR.Set(maxR)
	}
}
