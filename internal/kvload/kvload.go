// Package kvload generates deterministic synthetic datastore traffic:
// seeded open-loop streams of get/put/scan operations over a fixed key
// space, with the key popularity drawn from a uniform, zipfian or
// hot-set distribution. The generator is the workload half of the kv
// application (internal/apps/kv.go): every node regenerates the same
// streams from the same seed, so the traffic itself never needs to be
// communicated and any partition of the streams across nodes replays
// bit-identically — the property the differential harness leans on.
//
// Nothing here depends on math/rand or the Go runtime's hash seeds: the
// stream is a pure function of (seed, stream id, op index) so a run is
// reproducible across Go versions, architectures and cluster sizes.
package kvload

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// OpKind discriminates the three request types.
type OpKind uint8

const (
	// OpGet reads one key.
	OpGet OpKind = iota
	// OpPut overwrites one key.
	OpPut
	// OpScan reads Len consecutive slots starting at a key, modeling a
	// short range read within the key's partition.
	OpScan
)

// String names the op kind ("get", "put", "scan").
func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpScan:
		return "scan"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one generated request. Key is a rank: key 0 is the most popular
// key under every skewed distribution, so layouts that cluster adjacent
// ranks keep the page-level heat of the key-level skew.
type Op struct {
	Kind OpKind
	Key  uint32
	// Len is the scan length in slots (1 for get/put).
	Len uint16
}

// DistKind discriminates the key-popularity distributions.
type DistKind uint8

const (
	// DistUniform draws keys uniformly.
	DistUniform DistKind = iota
	// DistZipf draws key rank k with probability proportional to
	// 1/(k+1)^S.
	DistZipf
	// DistHotset draws from the first HotKeys ranks with probability
	// HotFrac, uniformly from the rest otherwise.
	DistHotset
)

// Dist describes a key-popularity distribution.
type Dist struct {
	Kind DistKind
	// S is the zipf exponent (DistZipf only; s=0 degenerates to uniform).
	S float64
	// HotFrac is the probability mass on the hot set (DistHotset only).
	HotFrac float64
	// HotKeys is the hot-set size in ranks (DistHotset only).
	HotKeys int
}

// String renders the distribution in the syntax ParseDist accepts.
func (d Dist) String() string {
	switch d.Kind {
	case DistUniform:
		return "uniform"
	case DistZipf:
		return fmt.Sprintf("zipf=%g", d.S)
	case DistHotset:
		return fmt.Sprintf("hotset=%g/%d", d.HotFrac, d.HotKeys)
	}
	return fmt.Sprintf("DistKind(%d)", uint8(d.Kind))
}

// Validate checks the distribution's parameters.
func (d Dist) Validate() error {
	switch d.Kind {
	case DistUniform:
		return nil
	case DistZipf:
		if math.IsNaN(d.S) || math.IsInf(d.S, 0) || d.S < 0 {
			return fmt.Errorf("kvload: zipf exponent %g out of range (want s >= 0)", d.S)
		}
		if d.S > 8 {
			return fmt.Errorf("kvload: zipf exponent %g out of range (want s <= 8)", d.S)
		}
		return nil
	case DistHotset:
		if math.IsNaN(d.HotFrac) || d.HotFrac < 0 || d.HotFrac > 1 {
			return fmt.Errorf("kvload: hotset fraction %g out of range (want [0,1])", d.HotFrac)
		}
		if d.HotKeys < 1 {
			return fmt.Errorf("kvload: hotset size %d out of range (want >= 1)", d.HotKeys)
		}
		return nil
	}
	return fmt.Errorf("kvload: unknown distribution kind %d", d.Kind)
}

// ParseDist parses "uniform", "zipf=S" (e.g. "zipf=0.99") or
// "hotset=FRAC/KEYS" (e.g. "hotset=0.9/64").
func ParseDist(s string) (Dist, error) {
	switch {
	case s == "uniform":
		return Dist{Kind: DistUniform}, nil
	case strings.HasPrefix(s, "zipf="):
		v, err := strconv.ParseFloat(s[len("zipf="):], 64)
		if err != nil {
			return Dist{}, fmt.Errorf("kvload: bad zipf exponent in %q: %v", s, err)
		}
		d := Dist{Kind: DistZipf, S: v}
		return d, d.Validate()
	case strings.HasPrefix(s, "hotset="):
		rest := s[len("hotset="):]
		frac, keys, ok := strings.Cut(rest, "/")
		if !ok {
			return Dist{}, fmt.Errorf("kvload: bad hotset spec %q (want hotset=FRAC/KEYS)", s)
		}
		f, err := strconv.ParseFloat(frac, 64)
		if err != nil {
			return Dist{}, fmt.Errorf("kvload: bad hotset fraction in %q: %v", s, err)
		}
		n, err := strconv.Atoi(keys)
		if err != nil {
			return Dist{}, fmt.Errorf("kvload: bad hotset size in %q: %v", s, err)
		}
		d := Dist{Kind: DistHotset, HotFrac: f, HotKeys: n}
		return d, d.Validate()
	}
	return Dist{}, fmt.Errorf("kvload: unknown distribution %q (have uniform, zipf=S, hotset=FRAC/KEYS)", s)
}

// Mix is the request-type mix of a stream.
type Mix struct {
	// Write is the put fraction, Scan the scan fraction; gets take the
	// remaining 1-Write-Scan.
	Write, Scan float64
	// ScanLen is the slot count per scan (>= 1).
	ScanLen int
}

// DefaultMix is a read-heavy datastore mix: 20% puts, no scans.
func DefaultMix() Mix { return Mix{Write: 0.2, ScanLen: 16} }

// String renders the mix in the syntax ParseMix accepts.
func (m Mix) String() string {
	return fmt.Sprintf("write=%g,scan=%g,scanlen=%d", m.Write, m.Scan, m.ScanLen)
}

// Validate checks the mix.
func (m Mix) Validate() error {
	if math.IsNaN(m.Write) || m.Write < 0 || m.Write > 1 {
		return fmt.Errorf("kvload: write fraction %g out of range (want [0,1])", m.Write)
	}
	if math.IsNaN(m.Scan) || m.Scan < 0 || m.Scan > 1 {
		return fmt.Errorf("kvload: scan fraction %g out of range (want [0,1])", m.Scan)
	}
	if m.Write+m.Scan > 1 {
		return fmt.Errorf("kvload: write+scan fraction %g exceeds 1", m.Write+m.Scan)
	}
	if m.ScanLen < 1 {
		return fmt.Errorf("kvload: scan length %d out of range (want >= 1)", m.ScanLen)
	}
	if m.ScanLen > 1<<15 {
		return fmt.Errorf("kvload: scan length %d out of range (want <= %d)", m.ScanLen, 1<<15)
	}
	return nil
}

// ParseMix parses a comma-separated mix spec: "write=0.2,scan=0.05,
// scanlen=16". Omitted fields keep DefaultMix values; an empty string is
// the default mix.
func ParseMix(s string) (Mix, error) {
	m := DefaultMix()
	if s == "" {
		return m, nil
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Mix{}, fmt.Errorf("kvload: bad mix term %q (want key=value)", part)
		}
		switch key {
		case "write":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Mix{}, fmt.Errorf("kvload: bad write fraction %q: %v", val, err)
			}
			m.Write = f
		case "scan":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Mix{}, fmt.Errorf("kvload: bad scan fraction %q: %v", val, err)
			}
			m.Scan = f
		case "scanlen":
			n, err := strconv.Atoi(val)
			if err != nil {
				return Mix{}, fmt.Errorf("kvload: bad scan length %q: %v", val, err)
			}
			m.ScanLen = n
		default:
			return Mix{}, fmt.Errorf("kvload: unknown mix key %q (have write, scan, scanlen)", key)
		}
	}
	return m, m.Validate()
}

// Mix64 is SplitMix64's output permutation: a fast, well-distributed
// 64-bit mixer. Exported for the kv app, which derives stored values and
// shard hashes from it so data is a pure function of (key, epoch,
// stream, op).
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a SplitMix64 sequence.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	x := r.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// float64v returns a uniform draw in [0,1) with 53 random bits.
func (r *rng) float64v() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// intn returns a uniform draw in [0,n). n must be positive.
func (r *rng) intn(n int) int {
	// Multiply-shift range reduction; the tiny bias is irrelevant for
	// synthetic traffic and keeps the draw a single multiplication (no
	// rejection loop, so op i always consumes a fixed number of rng
	// draws — part of the determinism contract).
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

// Sampler draws key ranks from a distribution over a fixed key space.
// It is immutable after construction and safe to share across streams
// and goroutines: the kv app builds one per App and every node's streams
// read it.
//
// Zipf ranks are drawn by inverting the CDF with a guide table (Chen and
// Asau's indexed search): guide[j] is the first rank whose cumulative
// mass reaches j/m, for m buckets, so a draw u in [j/m, (j+1)/m) only
// searches ranks guide[j]..guide[j+1] — usually none or one. Because m
// is a power of two, u*m and j/m are exact, and the result is exactly
// the rank a binary search over the sorted CDF returns
// (sort.SearchFloat64s(cdf, u)), not an approximation: streams are
// bit-identical to the plain inverse-CDF sampler.
type Sampler struct {
	keys    int
	kind    DistKind
	hotFrac float64
	hotKeys int
	// cdf is the inclusive cumulative probability of ranks 0..keys-1
	// (zipf only); cdf[keys-1] == 1.
	cdf []float64
	// guide holds m+1 entries for m = the smallest power of two >= keys:
	// guide[j] is the smallest rank i with cdf[i] >= j/m (zipf only).
	guide []uint32
	// buckets is m as a float64, the scale from a draw to its bucket.
	buckets float64
}

// NewSampler builds a sampler for the given key-space size.
func NewSampler(keys int, d Dist) (*Sampler, error) {
	if keys < 1 {
		return nil, fmt.Errorf("kvload: key space %d out of range (want >= 1)", keys)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	s := &Sampler{keys: keys, kind: d.Kind, hotFrac: d.HotFrac, hotKeys: d.HotKeys}
	switch d.Kind {
	case DistZipf:
		if d.S == 0 {
			s.kind = DistUniform
			break
		}
		s.cdf = make([]float64, keys)
		sum := 0.0
		for k := 0; k < keys; k++ {
			sum += math.Pow(float64(k+1), -d.S)
			s.cdf[k] = sum
		}
		for k := range s.cdf {
			s.cdf[k] /= sum
		}
		s.cdf[keys-1] = 1
		s.buildGuide()
	case DistHotset:
		if d.HotKeys >= keys {
			// The whole space is hot: degenerate to uniform.
			s.kind = DistUniform
		}
	}
	return s, nil
}

// buildGuide fills the zipf guide table from the finished CDF.
func (s *Sampler) buildGuide() {
	m := 1 << bits.Len(uint(s.keys-1))
	s.buckets = float64(m)
	s.guide = make([]uint32, m+1)
	i := 0
	for j := range s.guide {
		// j/m is exact; cdf[keys-1] == 1 >= j/m stops the walk in range.
		for t := float64(j) / s.buckets; s.cdf[i] < t; {
			i++
		}
		s.guide[j] = uint32(i)
	}
}

// Keys returns the key-space size.
func (s *Sampler) Keys() int { return s.keys }

// zipfRank returns the smallest rank i with cdf[i] >= u, for u in [0,1):
// the answer lies in [guide[j], guide[j+1]] for j = floor(u*m), so only
// that range is searched.
func (s *Sampler) zipfRank(u float64) uint32 {
	j := int(u * s.buckets)
	lo, hi := s.guide[j], s.guide[j+1]
	for lo < hi {
		mid := (lo + hi) >> 1
		if s.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// key draws one rank using the stream's rng.
func (s *Sampler) key(r *rng) uint32 {
	switch s.kind {
	case DistZipf:
		return s.zipfRank(r.float64v())
	case DistHotset:
		// Two draws per op regardless of which side is taken, so the
		// stream's rng consumption per op is fixed.
		u := r.float64v()
		n := r.next()
		if u < s.hotFrac {
			hi, _ := bits.Mul64(n, uint64(s.hotKeys))
			return uint32(hi)
		}
		hi, _ := bits.Mul64(n, uint64(s.keys-s.hotKeys))
		return uint32(s.hotKeys + int(hi))
	}
	return uint32(r.intn(s.keys))
}

// Stream is one open-loop request stream: an infinite deterministic
// sequence of Ops. Streams with the same (seed, id, sampler, mix)
// produce byte-identical sequences.
type Stream struct {
	rng rng
	s   *Sampler
	mix Mix
}

// NewStream creates stream id of the given seed. The id is folded into
// the rng state so streams are mutually independent.
func NewStream(s *Sampler, m Mix, seed uint64, id int) *Stream {
	return &Stream{rng: rng{state: Mix64(seed) ^ Mix64(uint64(id)*0x9e3779b97f4a7c15+1)}, s: s, mix: m}
}

// Next generates the stream's next op.
func (st *Stream) Next() Op {
	u := st.rng.float64v()
	key := st.s.key(&st.rng)
	switch {
	case u < st.mix.Write:
		return Op{Kind: OpPut, Key: key, Len: 1}
	case u < st.mix.Write+st.mix.Scan:
		return Op{Kind: OpScan, Key: key, Len: uint16(st.mix.ScanLen)}
	}
	return Op{Kind: OpGet, Key: key, Len: 1}
}
