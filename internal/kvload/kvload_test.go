package kvload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// opBytes serializes a prefix of a stream so determinism can be asserted
// byte-for-byte, as the issue demands, not just value-for-value.
func opBytes(t *testing.T, keys int, seed uint64, id, n int, d Dist, m Mix) []byte {
	t.Helper()
	s, err := NewSampler(keys, d)
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	st := NewStream(s, m, seed, id)
	buf := make([]byte, 0, n*7)
	for i := 0; i < n; i++ {
		op := st.Next()
		buf = append(buf, byte(op.Kind))
		buf = binary.LittleEndian.AppendUint32(buf, op.Key)
		buf = binary.LittleEndian.AppendUint16(buf, op.Len)
	}
	return buf
}

func TestStreamDeterministic(t *testing.T) {
	for _, d := range []Dist{
		{Kind: DistUniform},
		{Kind: DistZipf, S: 0.99},
		{Kind: DistZipf, S: 1.2},
		{Kind: DistHotset, HotFrac: 0.9, HotKeys: 64},
	} {
		m := Mix{Write: 0.2, Scan: 0.05, ScanLen: 16}
		a := opBytes(t, 1<<14, 42, 3, 4096, d, m)
		b := opBytes(t, 1<<14, 42, 3, 4096, d, m)
		if string(a) != string(b) {
			t.Errorf("%v: same seed produced different op streams", d)
		}
		c := opBytes(t, 1<<14, 43, 3, 4096, d, m)
		if string(a) == string(c) {
			t.Errorf("%v: different seeds produced identical op streams", d)
		}
		e := opBytes(t, 1<<14, 42, 4, 4096, d, m)
		if string(a) == string(e) {
			t.Errorf("%v: different stream ids produced identical op streams", d)
		}
	}
}

// TestStreamReplay replays a stream and checks per-op invariants: the
// generator's output is part of the conformance surface (repro results
// embed checksums derived from it), so an accidental reordering of rng
// draws must fail loudly, not just perturb benchmarks.
func TestStreamReplay(t *testing.T) {
	s, err := NewSampler(1024, Dist{Kind: DistZipf, S: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStream(s, Mix{Write: 0.5, Scan: 0.1, ScanLen: 4}, 7, 0)
	var got []Op
	for i := 0; i < 4; i++ {
		got = append(got, st.Next())
	}
	st2 := NewStream(s, Mix{Write: 0.5, Scan: 0.1, ScanLen: 4}, 7, 0)
	for i, op := range got {
		if op2 := st2.Next(); op2 != op {
			t.Fatalf("op %d: replay %+v != first pass %+v", i, op2, op)
		}
		if op.Kind == OpScan && op.Len != 4 {
			t.Errorf("op %d: scan len %d, want 4", i, op.Len)
		}
		if op.Kind != OpScan && op.Len != 1 {
			t.Errorf("op %d: point op len %d, want 1", i, op.Len)
		}
		if op.Key >= 1024 {
			t.Errorf("op %d: key %d outside key space", i, op.Key)
		}
	}
}

// TestStreamGolden pins the generated traffic itself: the SHA-256 of the
// first 100k ops of one stream per (distribution, key space). The other
// stream tests compare the code with itself; this one fails if any
// change to the sampler or the rng draw order perturbs a single op,
// which would silently shift every kv checksum and virtual time.
func TestStreamGolden(t *testing.T) {
	const n = 100_000
	m := Mix{Write: 0.2, Scan: 0.05, ScanLen: 16}
	golden := []struct {
		keys int
		d    Dist
		want string
	}{
		{1 << 14, Dist{Kind: DistUniform}, "edbbf9c22c0d93040864b0967f5ef1fd243da9a042a1e351c0d7d4dc2dc019f6"},
		{1 << 14, Dist{Kind: DistZipf, S: 0.5}, "40f006973a7b3c1e64d9d9c8a365134c317aee0eae40b60d6323bf903fc7baf0"},
		{1 << 14, Dist{Kind: DistZipf, S: 0.99}, "f1a50420b4e1b910a499c9cad605c22f2bfc53d813a31c676307f5c9619da8a6"},
		{1 << 14, Dist{Kind: DistZipf, S: 1.2}, "375ed1292c751cbefcae610ed264d531dea810d6359e518ba995b0675f0b5ff3"},
		{1 << 14, Dist{Kind: DistZipf, S: 3}, "7c44300380348ad3ea2cb1a9a69e515c73034eb5912a891aa38c2e775dd8dadb"},
		{1 << 14, Dist{Kind: DistHotset, HotFrac: 0.9, HotKeys: 64}, "2d47ab9425065d8c445471c8a905fbbe81ce03dc1a2c5f820b58129e97a0add4"},
		{1 << 16, Dist{Kind: DistUniform}, "eaa13644bd4e53f9f6b42d1eb6582630695a34a96bc6edccb3b1dbd8372b196d"},
		{1 << 16, Dist{Kind: DistZipf, S: 0.5}, "0002bceb22fa3149e2f0357f43cf94ec361f619b3e12e826c214dfd184833635"},
		{1 << 16, Dist{Kind: DistZipf, S: 0.99}, "93b4511810f51f9050efcb86128b550be07377094e3834e795b20dd0a4a18552"},
		{1 << 16, Dist{Kind: DistZipf, S: 1.2}, "36b78595d0823ad966d8a2862d1e920748b5cfde69afa533bafdcda1cada4f76"},
		{1 << 16, Dist{Kind: DistZipf, S: 3}, "7c44300380348ad3ea2cb1a9a69e515c73034eb5912a891aa38c2e775dd8dadb"},
		{1 << 16, Dist{Kind: DistHotset, HotFrac: 0.9, HotKeys: 64}, "6e337fb749f18ce9eea29aa185ad5fe1935ad665f949a6decf9cc8e5d5a82d1d"},
	}
	for _, g := range golden {
		sum := sha256.Sum256(opBytes(t, g.keys, 42, 3, n, g.d, m))
		if got := hex.EncodeToString(sum[:]); got != g.want {
			t.Errorf("keys=%d %v: stream digest %s, want %s", g.keys, g.d, got, g.want)
		}
	}
}

// TestStreamNextNoAlloc pins the hot path: generating an op from a
// zipf stream allocates nothing.
func TestStreamNextNoAlloc(t *testing.T) {
	s, err := NewSampler(1<<16, Dist{Kind: DistZipf, S: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStream(s, DefaultMix(), 1, 0)
	if allocs := testing.AllocsPerRun(1000, func() { st.Next() }); allocs != 0 {
		t.Fatalf("zipf Stream.Next allocates %.1f per op, want 0", allocs)
	}
}

// TestZipfCDF checks the sampler's cumulative mass against the
// analytical zipf distribution at a few quantiles.
func TestZipfCDF(t *testing.T) {
	const keys = 10000
	for _, s := range []float64{0.5, 0.99, 1.2} {
		smp, err := NewSampler(keys, Dist{Kind: DistZipf, S: s})
		if err != nil {
			t.Fatal(err)
		}
		// Analytical CDF at rank r: sum_{k<=r} k^-s / H.
		h := 0.0
		for k := 1; k <= keys; k++ {
			h += math.Pow(float64(k), -s)
		}
		partial := 0.0
		for r := 0; r < 100; r++ {
			partial += math.Pow(float64(r+1), -s)
		}
		want := partial / h
		if got := smp.cdf[99]; math.Abs(got-want) > 1e-9 {
			t.Errorf("s=%g: cdf[99] = %g, want %g", s, got, want)
		}
		if last := smp.cdf[keys-1]; last != 1 {
			t.Errorf("s=%g: cdf[last] = %g, want exactly 1", s, last)
		}
		for k := 1; k < keys; k++ {
			if smp.cdf[k] < smp.cdf[k-1] {
				t.Fatalf("s=%g: cdf not monotone at %d", s, k)
			}
		}
	}
}

// TestZipfEmpirical samples heavily and checks head mass: under s=1.2
// the top 1% of keys must absorb most of the traffic; under s=0 (which
// degenerates to uniform) it must not.
func TestZipfEmpirical(t *testing.T) {
	const keys, n = 10000, 200000
	headMass := func(s float64) float64 {
		smp, err := NewSampler(keys, Dist{Kind: DistZipf, S: s})
		if err != nil {
			t.Fatal(err)
		}
		st := NewStream(smp, Mix{ScanLen: 1}, 1, 0)
		head := 0
		for i := 0; i < n; i++ {
			if st.Next().Key < keys/100 {
				head++
			}
		}
		return float64(head) / n
	}
	if m := headMass(1.2); m < 0.5 {
		t.Errorf("s=1.2: top 1%% of keys got %.3f of traffic, want > 0.5", m)
	}
	if m := headMass(0); math.Abs(m-0.01) > 0.005 {
		t.Errorf("s=0: top 1%% of keys got %.3f of traffic, want ~0.01", m)
	}
}

func TestHotsetMass(t *testing.T) {
	const keys, n = 4096, 200000
	smp, err := NewSampler(keys, Dist{Kind: DistHotset, HotFrac: 0.9, HotKeys: 64})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStream(smp, Mix{ScanLen: 1}, 1, 0)
	hot := 0
	for i := 0; i < n; i++ {
		if st.Next().Key < 64 {
			hot++
		}
	}
	if m := float64(hot) / n; math.Abs(m-0.9) > 0.01 {
		t.Errorf("hot set got %.3f of traffic, want ~0.9", m)
	}
}

func TestMixFractions(t *testing.T) {
	const n = 200000
	smp, err := NewSampler(1024, Dist{Kind: DistUniform})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStream(smp, Mix{Write: 0.3, Scan: 0.1, ScanLen: 8}, 5, 0)
	var puts, scans int
	for i := 0; i < n; i++ {
		switch st.Next().Kind {
		case OpPut:
			puts++
		case OpScan:
			scans++
		}
	}
	if f := float64(puts) / n; math.Abs(f-0.3) > 0.01 {
		t.Errorf("put fraction %.3f, want ~0.3", f)
	}
	if f := float64(scans) / n; math.Abs(f-0.1) > 0.01 {
		t.Errorf("scan fraction %.3f, want ~0.1", f)
	}
}

func TestParseDist(t *testing.T) {
	cases := []struct {
		in   string
		want Dist
	}{
		{"uniform", Dist{Kind: DistUniform}},
		{"zipf=0.99", Dist{Kind: DistZipf, S: 0.99}},
		{"zipf=0", Dist{Kind: DistZipf, S: 0}},
		{"hotset=0.9/64", Dist{Kind: DistHotset, HotFrac: 0.9, HotKeys: 64}},
	}
	for _, c := range cases {
		got, err := ParseDist(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseDist(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
		// String round-trips through the parser.
		back, err := ParseDist(got.String())
		if err != nil || back != got {
			t.Errorf("round trip of %q via %q failed: %+v, %v", c.in, got.String(), back, err)
		}
	}
	for _, bad := range []string{
		"", "zipfian", "zipf=", "zipf=-1", "zipf=NaN", "zipf=1e99",
		"hotset=0.9", "hotset=2/64", "hotset=0.9/0", "hotset=0.9/x",
	} {
		if d, err := ParseDist(bad); err == nil {
			t.Errorf("ParseDist(%q) accepted: %+v", bad, d)
		}
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("write=0.2,scan=0.05,scanlen=16")
	want := Mix{Write: 0.2, Scan: 0.05, ScanLen: 16}
	if err != nil || m != want {
		t.Errorf("ParseMix = %+v, %v; want %+v", m, err, want)
	}
	if m, err := ParseMix(""); err != nil || m != DefaultMix() {
		t.Errorf("ParseMix(\"\") = %+v, %v; want default", m, err)
	}
	if m, err := ParseMix("write=1"); err != nil || m.Write != 1 {
		t.Errorf("ParseMix(write=1) = %+v, %v", m, err)
	}
	for _, bad := range []string{
		"write", "write=x", "write=-0.1", "write=1.5", "scan=NaN",
		"write=0.6,scan=0.6", "scanlen=0", "scanlen=99999", "reads=0.5",
	} {
		if m, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted: %+v", bad, m)
		}
	}
}

func TestSamplerValidation(t *testing.T) {
	if _, err := NewSampler(0, Dist{Kind: DistUniform}); err == nil {
		t.Error("NewSampler accepted an empty key space")
	}
	if _, err := NewSampler(100, Dist{Kind: DistZipf, S: -1}); err == nil {
		t.Error("NewSampler accepted a negative exponent")
	}
	// Hot set covering the whole space degenerates to uniform rather
	// than dividing by zero.
	s, err := NewSampler(64, Dist{Kind: DistHotset, HotFrac: 0.9, HotKeys: 64})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStream(s, Mix{ScanLen: 1}, 1, 0)
	for i := 0; i < 1000; i++ {
		if k := st.Next().Key; k >= 64 {
			t.Fatalf("degenerate hotset produced key %d outside space", k)
		}
	}
}
