package kvload

import (
	"math"
	"sort"
	"testing"
)

// FuzzParseDist holds the distribution parser to two properties: a spec
// it accepts always validates, and String() of the result re-parses to
// the same distribution (the dsmd launch surface echoes specs back
// through this round trip).
func FuzzParseDist(f *testing.F) {
	f.Add("uniform")
	f.Add("zipf=0.99")
	f.Add("zipf=0")
	f.Add("hotset=0.9/64")
	f.Add("hotset=1/1")
	f.Add("zipf=-1")
	f.Add("hotset=0.5")
	f.Add("zipf=1e309")
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDist(s)
		if err != nil {
			return
		}
		if verr := d.Validate(); verr != nil {
			t.Fatalf("ParseDist(%q) = %+v accepted but invalid: %v", s, d, verr)
		}
		back, err := ParseDist(d.String())
		if err != nil {
			t.Fatalf("ParseDist(%q).String() = %q does not re-parse: %v", s, d.String(), err)
		}
		if back != d {
			t.Fatalf("round trip of %q: %+v -> %q -> %+v", s, d, d.String(), back)
		}
	})
}

// FuzzParseMix mirrors FuzzParseDist for the op-mix parser, additionally
// pinning the numeric invariants the kv app depends on (fractions sum
// within [0,1], scan length bounded so Op.Len cannot truncate).
func FuzzParseMix(f *testing.F) {
	f.Add("")
	f.Add("write=0.2,scan=0.05,scanlen=16")
	f.Add("write=1")
	f.Add("scan=0.5,write=0.5")
	f.Add("scanlen=32768")
	f.Add("write=0.6,scan=0.6")
	f.Add("write=nan")
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseMix(s)
		if err != nil {
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("ParseMix(%q) = %+v accepted but invalid: %v", s, m, verr)
		}
		if m.Write < 0 || m.Scan < 0 || m.Write+m.Scan > 1 || math.IsNaN(m.Write+m.Scan) {
			t.Fatalf("ParseMix(%q) = %+v breaks fraction invariants", s, m)
		}
		if m.ScanLen < 1 || m.ScanLen > 1<<15 {
			t.Fatalf("ParseMix(%q) scan length %d out of bounds", s, m.ScanLen)
		}
		back, err := ParseMix(m.String())
		if err != nil || back != m {
			t.Fatalf("round trip of %q: %+v -> %q -> %+v (%v)", s, m, m.String(), back, err)
		}
	})
}

// FuzzZipfKey holds the guide-table lookup to the plain inverse-CDF
// search it replaces: for any key space in [1, 1<<16], exponent in
// (0, 8] and 53-bit draw u, zipfRank(u) must equal
// sort.SearchFloat64s(cdf, u) exactly. The CDF value at the answer and
// the float just below it — the two draws that straddle a rank
// boundary — are checked too.
func FuzzZipfKey(f *testing.F) {
	const top = 1<<53 - 1 // u = 1-2^-53, the largest draw
	f.Add(uint32(1), 0.99, uint64(0))
	f.Add(uint32(1), 0.99, uint64(top))
	f.Add(uint32(1<<16), 0.99, uint64(0))
	f.Add(uint32(1<<16), 0.99, uint64(top))
	f.Add(uint32(1<<16), 8.0, uint64(top))
	f.Add(uint32(1000), 8.0, uint64(1)<<52)
	f.Add(uint32(1000), 0.5, uint64(top))
	f.Add(uint32(1<<14), 1.2, uint64(12345678901234))
	// A draw exactly equal to a CDF entry: every float in [0.5, 1) is a
	// multiple of 2^-53, so the first entry past 0.5 is a reachable u.
	if s, err := NewSampler(1000, Dist{Kind: DistZipf, S: 0.99}); err == nil {
		i := sort.SearchFloat64s(s.cdf, 0.5)
		f.Add(uint32(1000), 0.99, uint64(s.cdf[i]*(1<<53)))
	}
	f.Fuzz(func(t *testing.T, keys uint32, exp float64, bits53 uint64) {
		if math.IsNaN(exp) || math.IsInf(exp, 0) {
			return
		}
		n := 1 + int(keys%(1<<16))
		exp = math.Mod(math.Abs(exp), 8)
		if exp == 0 {
			exp = 8
		}
		s, err := NewSampler(n, Dist{Kind: DistZipf, S: exp})
		if err != nil {
			t.Fatalf("NewSampler(%d, zipf=%g): %v", n, exp, err)
		}
		u := float64(bits53%(1<<53)) / (1 << 53)
		r := s.zipfRank(u)
		for _, v := range []float64{u, s.cdf[r], math.Nextafter(s.cdf[r], 0)} {
			if v >= 1 {
				continue
			}
			if got, want := s.zipfRank(v), sort.SearchFloat64s(s.cdf, v); int(got) != want {
				t.Fatalf("keys=%d s=%g u=%v: guide lookup %d, sorted search %d", n, exp, v, got, want)
			}
		}
	})
}
