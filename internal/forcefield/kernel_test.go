package forcefield

import (
	"math"
	"testing"

	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/vec"
)

// kernel is one implementation of the two candidate loops.
type kernel struct {
	name   string
	vector bool
	rng    func(cx, cy, cz []float64, p vec.V3, hit []int32, r2s []float64) int
	gather func(x, y, z []float64, k0, k1 int, c, h [3]float64, s *NeighborScratch, n int) int
}

// kernels are the portable Go loops, which are also the oracle, and the
// AVX2 loops.
var kernels = []kernel{
	{"portable", false, rangePassGo, gatherSpanGo},
	{"avx2", true, rangePassAVX2, gatherSpanAVX2},
}

// use points rangePass and gatherSpan at k until the returned function
// restores them.
func (k kernel) use() (restore func()) {
	savedRange, savedGather := rangePass, gatherSpan
	rangePass, gatherSpan = k.rng, k.gather
	return func() { rangePass, gatherSpan = savedRange, savedGather }
}

// eachKernel runs test once per kernel, skipping the vector kernel on a CPU
// without AVX2.
func eachKernel(t *testing.T, test func(t *testing.T)) {
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			if k.vector && !haveAVX2 {
				t.Skip("CPU without AVX2")
			}
			defer k.use()()
			test(t)
		})
	}
}

// specials are coordinates the kernels must treat exactly as the portable
// loops do: NaN, infinities, signed zeros, subnormals and huge values.
var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -5e-324, 0x1p-1022 / 3, 1e300, -1e300, Cutoff, -Cutoff,
}

// kernelInput builds n candidates around p, within twice the cutoff, then
// overwrites coordinates with specials: each byte pair of special picks a
// coordinate slot and a special. One candidate sits at exactly
// r2 == cutoff² from p when p is finite and small.
func kernelInput(seed uint64, n int, special []byte, p vec.V3) (x, y, z []float64) {
	r := rng.New(seed)
	x, y, z = make([]float64, n), make([]float64, n), make([]float64, n)
	for k := range x {
		d := r.InSphere(2 * Cutoff)
		x[k], y[k], z[k] = p.X+d.X, p.Y+d.Y, p.Z+d.Z
	}
	if n == 0 {
		return x, y, z
	}
	on := int(seed % uint64(n))
	x[on], y[on], z[on] = p.X+Cutoff, p.Y, p.Z
	axes := [3][]float64{x, y, z}
	for i := 0; i+1 < len(special); i += 2 {
		slot := int(special[i]) % (3 * n)
		axes[slot%3][slot/3] = specials[int(special[i+1])%len(specials)]
	}
	return x, y, z
}

// sameBits reports whether two float64 sequences are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkKernelsAgree runs both candidate loops of both kernels over the same
// raw candidates and requires equal counts and bitwise-equal (index, r2)
// and (x, y, z, index) sequences.
func checkKernelsAgree(t *testing.T, seed uint64, n int, special []byte, p vec.V3, half float64) {
	t.Helper()
	x, y, z := kernelInput(seed, n, special, p)
	var (
		hit [2][]int32
		r2  [2][]float64
		m   [2]int
		s   [2]NeighborScratch
		g   [2]int
	)
	// The pose box is centered at p; the span starts at list atom k0 and
	// stores from slot out0 <= k0, as a gather after earlier spans does.
	c := [3]float64{p.X, p.Y, p.Z}
	h := [3]float64{half, half / 2, 0}
	k0 := int(seed % 5)
	if k0 > n {
		k0 = n
	}
	out0 := k0 / 2
	for i, kern := range kernels {
		hit[i], r2[i] = make([]int32, n), make([]float64, n)
		m[i] = kern.rng(x, y, z, p, hit[i], r2[i])
		s[i].reserve(n)
		g[i] = kern.gather(x, y, z, k0, n, c, h, &s[i], out0)
	}
	if m[0] != m[1] {
		t.Fatalf("n=%d: range pass counts %d portable, %d avx2", n, m[0], m[1])
	}
	for k := 0; k < m[0]; k++ {
		if hit[0][k] != hit[1][k] {
			t.Fatalf("n=%d: hit %d is candidate %d portable, %d avx2", n, k, hit[0][k], hit[1][k])
		}
	}
	if !sameBits(r2[0][:m[0]], r2[1][:m[1]]) {
		t.Fatalf("n=%d: r2 portable %v, avx2 %v", n, r2[0][:m[0]], r2[1][:m[1]])
	}
	if g[0] != g[1] {
		t.Fatalf("n=%d k0=%d: gather counts %d portable, %d avx2", n, k0, g[0], g[1])
	}
	a, b := &s[0], &s[1]
	for k := out0; k < g[0]; k++ {
		if a.idx[k] != b.idx[k] {
			t.Fatalf("n=%d: gathered slot %d is atom %d portable, %d avx2", n, k, a.idx[k], b.idx[k])
		}
	}
	if !sameBits(a.x[out0:g[0]], b.x[out0:g[1]]) || !sameBits(a.y[out0:g[0]], b.y[out0:g[1]]) ||
		!sameBits(a.z[out0:g[0]], b.z[out0:g[1]]) {
		t.Fatalf("n=%d: gathered coordinates differ", n)
	}
}

// TestNeighborKernelsAgree compares the kernels over every length 0–67,
// so each tail length 0–3 meets every group count, with and without
// special coordinates.
func TestNeighborKernelsAgree(t *testing.T) {
	if !haveAVX2 {
		t.Skip("CPU without AVX2")
	}
	patterns := [][]byte{
		nil,
		{0, 0, 4, 1, 8, 2},   // NaN, +Inf, -Inf
		{1, 3, 2, 4, 3, 5},   // +0, -0, subnormal
		{5, 8, 6, 9, 7, 10},  // ±1e300, a cutoff-sized coordinate
		{0, 6, 1, 7, 11, 11}, // subnormals, -cutoff
	}
	for n := 0; n <= 67; n++ {
		for i, special := range patterns {
			p := vec.New(float64(i), -2.5, 0.125*float64(n))
			checkKernelsAgree(t, uint64(n*len(patterns)+i+1), n, special, p, float64(i))
		}
	}
}

// FuzzNeighborKernels is the differential fuzz target of the two kernels
// over raw candidate arrays: fuzzed length, special coordinates, ligand
// atom and pose-box size.
func FuzzNeighborKernels(f *testing.F) {
	f.Add(uint64(1), uint8(0), []byte{}, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint64(2), uint8(7), []byte{0, 0}, 1.0, 2.0, 3.0, 1.5)
	f.Add(uint64(3), uint8(33), []byte{1, 3, 2, 4, 3, 5, 9, 8}, -4.0, 0.5, 8.0, 3.0)
	f.Add(uint64(4), uint8(67), []byte{5, 1, 6, 2, 40, 9}, 100.0, -100.0, 0.0, 12.0)
	f.Add(uint64(5), uint8(64), []byte{}, math.NaN(), 0.0, 0.0, 2.0)
	f.Add(uint64(6), uint8(12), []byte{3, 6}, 0.0, math.Inf(1), 0.0, math.Inf(1))
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, special []byte, px, py, pz, half float64) {
		if !haveAVX2 {
			t.Skip("CPU without AVX2")
		}
		checkKernelsAgree(t, seed, int(n%68), special, vec.New(px, py, pz), half)
	})
}

// TestNeighborListNaNPose scores a pose with a NaN coordinate: every
// kernel must return NaN, as the full scan does, not a finite energy that
// dropped the atom.
func TestNeighborListNaNPose(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		f := newSpotFixture(t, molecule.Synthetic2BSMReceptor(), molecule.Synthetic2BSMLigand(), 1, Options{Coulomb: true})
		spot := f.spots[0]
		nl := f.spotList(spot, f.ligRadius)
		pose := f.samplerPoses(spot, nil, rng.New(3), 1)[0]
		pose[len(pose)/2].Y = math.NaN()
		var s NeighborScratch
		if e, _ := nl.ScorePose(pose, &s); !math.IsNaN(e) {
			t.Errorf("NaN pose scored %v", e)
		}
		if e := nl.referenceScan(pose); !math.IsNaN(e) {
			t.Errorf("NaN pose: full scan %v", e)
		}
	})
}
