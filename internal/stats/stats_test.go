package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d identical outputs", same)
	}
}

func TestRNGZeroSeedIsValid(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced a degenerate stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.Float64())
	}
	if math.Abs(s.Mean()-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", s.Mean())
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := NewRNG(5)
	const n, runs = 10, 100000
	counts := make([]int, n)
	for i := 0; i < runs; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		p := float64(c) / runs
		if math.Abs(p-0.1) > 0.01 {
			t.Errorf("bucket %d frequency %v, want ~0.1", i, p)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestBoolEdgeCases(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

// TestFlipStepMatchesUint64: a fractional Flip advances the unpacked
// state exactly as one Uint64 call does, over a long stream.
func TestFlipStepMatchesUint64(t *testing.T) {
	ref, r := NewRNG(77), NewRNG(77)
	st := r.State()
	s0, s1, s2, s3 := st[0], st[1], st[2], st[3]
	for i := 0; i < 1<<20; i++ {
		ref.Uint64()
		_, s0, s1, s2, s3 = Flip(0.5, s0, s1, s2, s3)
		if [4]uint64{s0, s1, s2, s3} != ref.s {
			t.Fatalf("state diverges from Uint64 at step %d", i)
		}
	}
	st[0], st[1], st[2], st[3] = s0, s1, s2, s3
	if r.Uint64() != ref.Uint64() {
		t.Fatal("stream after storing the state back diverges")
	}
}

// TestFlipMatchesBool: Flip returns Bool's coin and consumes Bool's draws
// for every probability, including the no-draw edges and NaN.
func TestFlipMatchesBool(t *testing.T) {
	ps := []float64{0, -0.5, 1, 1.5, 0.3, 1e-9, 0.999999, math.NaN(), math.Inf(1), math.Inf(-1), 0.5}
	ref, r := NewRNG(5), NewRNG(5)
	st := r.State()
	s0, s1, s2, s3 := st[0], st[1], st[2], st[3]
	for i := 0; i < 200000; i++ {
		p := ps[i%len(ps)]
		if i%3 == 0 {
			p = ref.Float64() // a fresh fractional p; mirror the draw
			_, s0, s1, s2, s3 = Flip(0.5, s0, s1, s2, s3)
		}
		want := ref.Bool(p)
		var got bool
		got, s0, s1, s2, s3 = Flip(p, s0, s1, s2, s3)
		if got != want || [4]uint64{s0, s1, s2, s3} != ref.s {
			t.Fatalf("step %d p=%v: Flip %v, Bool %v (states equal: %v)", i, p, got, want, [4]uint64{s0, s1, s2, s3} == ref.s)
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	r := NewRNG(9)
	const p, runs = 0.3, 100000
	hits := 0
	for i := 0; i < runs; i++ {
		if r.Bool(p) {
			hits++
		}
	}
	freq := float64(hits) / runs
	if math.Abs(freq-p) > 0.01 {
		t.Errorf("Bool(%v) frequency %v", p, freq)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(13)
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.NormFloat64())
	}
	if math.Abs(s.Mean()) > 0.02 {
		t.Errorf("normal mean = %v", s.Mean())
	}
	if math.Abs(s.Variance()-1) > 0.03 {
		t.Errorf("normal variance = %v", s.Variance())
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(17)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(23)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams overlap: %d identical", same)
	}
}

func TestGaussianSampleMoments(t *testing.T) {
	g := Gaussian{Mu: 3, Sigma: 2}
	r := NewRNG(29)
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Add(g.Sample(r))
	}
	if math.Abs(s.Mean()-3) > 0.05 {
		t.Errorf("mean = %v", s.Mean())
	}
	if math.Abs(s.Variance()-4) > 0.15 {
		t.Errorf("variance = %v", s.Variance())
	}
}

func TestGaussianCDF(t *testing.T) {
	g := Gaussian{Mu: 0, Sigma: 1}
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.96, 0.975},
		{-1.96, 0.025},
	}
	for _, c := range cases {
		if got := g.CDF(c.x); math.Abs(got-c.want) > 1e-3 {
			t.Errorf("CDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestGaussianCDFDegenerate(t *testing.T) {
	g := Gaussian{Mu: 2, Sigma: 0}
	if g.CDF(1.9) != 0 || g.CDF(2.1) != 1 {
		t.Error("degenerate CDF wrong")
	}
}

func TestNoiseIsZeroMean(t *testing.T) {
	n := Noise(2.5)
	if n.Mean() != 0 || n.Variance() != 6.25 {
		t.Errorf("Noise(2.5) = %+v", n)
	}
}

func TestUniformMoments(t *testing.T) {
	u := Uniform{Lo: -1, Hi: 3}
	if u.Mean() != 1 {
		t.Errorf("mean = %v", u.Mean())
	}
	if math.Abs(u.Variance()-16.0/12) > 1e-12 {
		t.Errorf("variance = %v", u.Variance())
	}
	r := NewRNG(31)
	for i := 0; i < 1000; i++ {
		x := u.Sample(r)
		if x < -1 || x > 3 {
			t.Fatalf("sample out of range: %v", x)
		}
	}
}

func TestPointMass(t *testing.T) {
	p := PointMass{V: 7}
	if p.Sample(nil) != 7 || p.Mean() != 7 || p.Variance() != 0 {
		t.Error("PointMass misbehaves")
	}
}

func TestTruncatedGaussianBounds(t *testing.T) {
	tg := TruncatedGaussian{Mu: 0, Sigma: 1, Lo: -0.5, Hi: 0.5}
	r := NewRNG(37)
	for i := 0; i < 5000; i++ {
		x := tg.Sample(r)
		if x < -0.5 || x > 0.5 {
			t.Fatalf("sample %v escaped bounds", x)
		}
	}
}

func TestTruncatedGaussianSymmetricMean(t *testing.T) {
	tg := TruncatedGaussian{Mu: 0, Sigma: 1, Lo: -1, Hi: 1}
	if math.Abs(tg.Mean()) > 1e-12 {
		t.Errorf("symmetric truncation mean = %v", tg.Mean())
	}
	if v := tg.Variance(); v <= 0 || v >= 1 {
		t.Errorf("truncated variance %v should be in (0,1)", v)
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	if s.N() != 5 || s.Mean() != 3 {
		t.Errorf("N=%d Mean=%v", s.N(), s.Mean())
	}
	if math.Abs(s.Variance()-2.5) > 1e-12 {
		t.Errorf("variance = %v, want 2.5", s.Variance())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 {
		t.Error("empty summary should be all zeros")
	}
}

func TestSummaryMerge(t *testing.T) {
	var a, b, whole Summary
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	for i, x := range xs {
		whole.Add(x)
		if i < 4 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.N() != whole.N() {
		t.Fatalf("merged N = %d", a.N())
	}
	if math.Abs(a.Mean()-whole.Mean()) > 1e-12 {
		t.Errorf("merged mean %v != %v", a.Mean(), whole.Mean())
	}
	if math.Abs(a.Variance()-whole.Variance()) > 1e-9 {
		t.Errorf("merged variance %v != %v", a.Variance(), whole.Variance())
	}
}

func TestSummaryMergeEmpty(t *testing.T) {
	var a, b Summary
	a.Add(1)
	a.Add(3)
	before := a
	a.Merge(b) // merging empty is a no-op
	if a != before {
		t.Error("merging empty changed summary")
	}
	b.Merge(a) // merging into empty copies
	if b.Mean() != 2 {
		t.Errorf("merge into empty: mean %v", b.Mean())
	}
}

func TestMeanVarianceOf(t *testing.T) {
	xs := []float64{2, 4, 6}
	if MeanOf(xs) != 4 {
		t.Errorf("MeanOf = %v", MeanOf(xs))
	}
	if math.Abs(VarianceOf(xs)-4) > 1e-12 {
		t.Errorf("VarianceOf = %v", VarianceOf(xs))
	}
	if MeanOf(nil) != 0 {
		t.Error("MeanOf(nil) != 0")
	}
}

func TestLogNChooseK(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{10, 0, 0},
		{10, 10, 0},
		{10, 1, math.Log(10)},
		{10, 3, math.Log(120)},
		{52, 5, math.Log(2598960)},
	}
	for _, c := range cases {
		if got := LogNChooseK(c.n, c.k); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("LogNChooseK(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
	if !math.IsInf(LogNChooseK(5, 7), -1) {
		t.Error("k>n should be -Inf")
	}
}
