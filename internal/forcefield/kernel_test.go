package forcefield

import (
	"math"
	"testing"

	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/vec"
)

// useForTest points the kernel variables at tier t until the returned
// function restores the host tier's.
func useForTest(t tier) (restore func()) {
	useTier(t)
	return func() { useTier(hostTier) }
}

// eachKernel runs test once per tier, as a subtest named after it, and
// skips a tier the CPU lacks with a named SKIP.
func eachKernel(t *testing.T, test func(t *testing.T)) {
	for k := tierPortable; k < numTiers; k++ {
		t.Run(k.String(), func(t *testing.T) {
			if k > hostTier {
				t.Skipf("CPU runs %s, not %s", hostTier, k)
			}
			defer useForTest(k)()
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

// kernelInput builds n candidates around p, within twice the cutoff,
// with seeded types, then overwrites coordinates with
// specials: each byte pair of special picks a coordinate slot and a
// special. One candidate sits at exactly r2 == cutoff² from p when p is
// finite and small.
func kernelInput(seed uint64, n int, special []byte, p vec.V3) *poseScratch {
	r := rng.New(seed)
	s := new(poseScratch)
	s.reserve(n)
	for k := 0; k < n; k++ {
		d := r.InSphere(2 * Cutoff)
		s.x[k], s.y[k], s.z[k] = p.X+d.X, p.Y+d.Y, p.Z+d.Z
		s.typ[k] = int32(r.Intn(numTypes))
	}
	if n == 0 {
		return s
	}
	on := int(seed % uint64(n))
	s.x[on], s.y[on], s.z[on] = p.X+Cutoff, p.Y, p.Z
	axes := [3][]float64{s.x, s.y, s.z}
	for i := 0; i+1 < len(special); i += 2 {
		slot := int(special[i]) % (3 * n)
		axes[slot%3][slot/3] = specials[int(special[i+1])%len(specials)]
	}
	return s
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

// checkKernelsAgree runs the range pass and the gather of tier k and of
// the portable loops over the same raw candidates and requires equal
// counts, bitwise-equal (r2, column) and (x, y, z, index) sequences, and
// no store past the slack a kernel may use.
func checkKernelsAgree(t *testing.T, k tier, seed uint64, n int, special []byte, p vec.V3, half float64) {
	t.Helper()
	in := kernelInput(seed, n, special, p)
	tiers := [2]tier{tierPortable, k}
	const guard = -7 // in slots the kernels may not store to
	var out [2]poseScratch
	var m [2]int
	for i, kt := range tiers {
		out[i] = *in
		out[i].r2, out[i].col = make([]float64, n+2*slack), make([]int32, n+2*slack)
		for h := n + slack - 1; h < n+2*slack; h++ {
			out[i].r2[h], out[i].col[h] = guard, guard
		}
		m[i] = tierKernels(kt).rangePass(&out[i], n, p)
		for h := n + slack - 1; h < n+2*slack; h++ {
			if out[i].r2[h] != guard || out[i].col[h] != guard {
				t.Fatalf("n=%d: %s range pass stored hit slot %d", n, kt, h)
			}
		}
	}
	if m[0] != m[1] {
		t.Fatalf("n=%d: range pass counts %d portable, %d %s", n, m[0], m[1], k)
	}
	ra, rb := &out[0], &out[1]
	for h := 0; h < m[0]; h++ {
		if ra.col[h] != rb.col[h] {
			t.Fatalf("n=%d: hit %d has column %d portable, %d %s", n, h, ra.col[h], rb.col[h], k)
		}
	}
	if !sameBits(ra.r2[:m[0]], rb.r2[:m[0]]) {
		t.Fatalf("n=%d: r2 portable %v, %s %v", n, ra.r2[:m[0]], k, rb.r2[:m[0]])
	}

	// The pose box is centered at p; the span starts at list atom k0 and
	// stores from slot out0 <= k0, as a gather after earlier spans does.
	c := [3]float64{p.X, p.Y, p.Z}
	h := [3]float64{half, half / 2, 0}
	k0 := int(seed % 5)
	if k0 > n {
		k0 = n
	}
	out0 := k0 / 2
	var s [2]poseScratch
	var g [2]int
	// The span stores from slot out0, so slots from out0 + (n-k0) +
	// slack - 1 on are out of bounds for it.
	end := out0 + n - k0 + slack - 1
	for i, kt := range tiers {
		s[i].reserve(n + slack)
		for j := end; j < len(s[i].x); j++ {
			s[i].x[j], s[i].y[j], s[i].z[j], s[i].idx[j] = guard, guard, guard, guard
		}
		g[i] = tierKernels(kt).gatherSpan(in.x[:n], in.y[:n], in.z[:n], k0, n, c, h, &s[i], out0)
		for j := end; j < len(s[i].x); j++ {
			if s[i].x[j] != guard || s[i].y[j] != guard || s[i].z[j] != guard || s[i].idx[j] != guard {
				t.Fatalf("n=%d k0=%d: %s gather stored slot %d", n, k0, kt, j)
			}
		}
	}
	if g[0] != g[1] {
		t.Fatalf("n=%d k0=%d: gather counts %d portable, %d %s", n, k0, g[0], g[1], k)
	}
	a, b := &s[0], &s[1]
	for i := out0; i < g[0]; i++ {
		if a.idx[i] != b.idx[i] {
			t.Fatalf("n=%d: gathered slot %d is atom %d portable, %d %s", n, i, a.idx[i], b.idx[i], k)
		}
	}
	if !sameBits(a.x[out0:g[0]], b.x[out0:g[1]]) || !sameBits(a.y[out0:g[0]], b.y[out0:g[1]]) ||
		!sameBits(a.z[out0:g[0]], b.z[out0:g[1]]) {
		t.Fatalf("n=%d: gathered coordinates differ", n)
	}
}

// vectorTiers are the tiers compared against the portable loops.
var vectorTiers = []tier{tierAVX2, tierAVX512}

// TestNeighborKernelsAgree compares every vector tier's loops with the
// portable ones over every length 0–67, so each tail length meets every
// group count, with and without special coordinates.
func TestNeighborKernelsAgree(t *testing.T) {
	patterns := [][]byte{
		nil,
		{0, 0, 4, 1, 8, 2},   // NaN, +Inf, -Inf
		{1, 3, 2, 4, 3, 5},   // +0, -0, subnormal
		{5, 8, 6, 9, 7, 10},  // ±1e300, a cutoff-sized coordinate
		{0, 6, 1, 7, 11, 11}, // subnormals, -cutoff
	}
	for _, k := range vectorTiers {
		t.Run(k.String(), func(t *testing.T) {
			if k > hostTier {
				t.Skipf("CPU runs %s, not %s", hostTier, k)
			}
			for n := 0; n <= 67; n++ {
				for i, special := range patterns {
					p := vec.New(float64(i), -2.5, 0.125*float64(n))
					checkKernelsAgree(t, k, uint64(n*len(patterns)+i+1), n, special, p, float64(i))
				}
			}
		})
	}
}

// FuzzNeighborKernels is the differential fuzz target of every vector tier
// the CPU runs against the portable loops over raw candidate arrays:
// fuzzed length, special coordinates, ligand atom and pose-box size.
// TestNeighborKernelsAgree names the tiers the CPU lacks as skips.
func FuzzNeighborKernels(f *testing.F) {
	f.Add(uint64(1), uint8(0), []byte{}, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint64(2), uint8(7), []byte{0, 0}, 1.0, 2.0, 3.0, 1.5)
	f.Add(uint64(3), uint8(33), []byte{1, 3, 2, 4, 3, 5, 9, 8}, -4.0, 0.5, 8.0, 3.0)
	f.Add(uint64(4), uint8(67), []byte{5, 1, 6, 2, 40, 9}, 100.0, -100.0, 0.0, 12.0)
	f.Add(uint64(5), uint8(64), []byte{}, math.NaN(), 0.0, 0.0, 2.0)
	f.Add(uint64(6), uint8(12), []byte{3, 6}, 0.0, math.Inf(1), 0.0, math.Inf(1))
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, special []byte, px, py, pz, half float64) {
		for _, k := range vectorTiers {
			if k <= hostTier {
				checkKernelsAgree(t, k, seed, int(n%68), special, vec.New(px, py, pz), half)
			}
		}
	})
}

// energyR2s are squared distances the energy kernels must treat exactly as
// the portable loop does: infinities, zeros, subnormals, the neighbours of
// minDist2 and cutoff², and last NaN, which poisons every sum after it.
var energyR2s = []float64{
	math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324, 0x1p-1022 / 3,
	math.Nextafter(minDist2, 0), minDist2, math.Nextafter(minDist2, 1),
	math.Nextafter(Cutoff*Cutoff, 0), Cutoff * Cutoff, math.Nextafter(Cutoff*Cutoff, math.Inf(1)),
	1, 7.3, 55.5, math.NaN(),
}

// checkEnergy runs the energy pass of tier k and the portable one over
// the hits of a and b from accumulators ea and eb and requires the same
// bits.
func checkEnergy(t *testing.T, k tier, row *ljRow, a, b *poseScratch, ma, mb int, ea, eb float64) {
	t.Helper()
	wa, wb := energyPassGo(row, a, b, ma, mb, ea, eb)
	ga, gb := tierKernels(k).energyPass(row, a, b, ma, mb, ea, eb)
	if !sameBits([]float64{wa, wb}, []float64{ga, gb}) {
		t.Fatalf("ma=%d mb=%d from (%v, %v): portable (%v, %v) %#x %#x, %s (%v, %v) %#x %#x",
			ma, mb, ea, eb, wa, wb, math.Float64bits(wa), math.Float64bits(wb),
			k, ga, gb, math.Float64bits(ga), math.Float64bits(gb))
	}
}

// TestEnergyKernelsSpecialValues compares every vector tier's energy pass
// with the portable one for each of the 36 type pairs: each special squared distance alone, then runs of
// them of every length for two poses at once, the second pose's hits
// those of the first rotated, NaN last in both.
func TestEnergyKernelsSpecialValues(t *testing.T) {
	nl := NewNeighborList(NewCellList(&Topology{}, &Topology{}), &Topology{}, vec.AABB{})
	for _, k := range vectorTiers {
		t.Run(k.String(), func(t *testing.T) {
			if k > hostTier {
				t.Skipf("CPU runs %s, not %s", hostTier, k)
			}
			var a, b poseScratch
			a.reserve(len(energyR2s))
			b.reserve(len(energyR2s))
			for lt := range nl.rows {
				row := &nl.rows[lt]
				for col := range int32(numTypes) {
					for _, r2 := range energyR2s {
						a.r2[0], a.col[0] = r2, col
						checkEnergy(t, k, row, &a, &b, 1, 0, 0, 0)
						checkEnergy(t, k, row, &a, &a, 1, 1, 1.5, -2.25)
					}
				}
				n := len(energyR2s)
				for i, r2 := range energyR2s {
					a.r2[i], a.col[i] = r2, int32((i+lt)%numTypes)
					j := i
					if i < n-1 {
						j = (i + 5) % (n - 1)
					}
					b.r2[j], b.col[j] = r2, a.col[i]
				}
				for ma := 0; ma <= n; ma++ {
					checkEnergy(t, k, row, &a, &b, ma, n-ma, 0, 0)
					checkEnergy(t, k, row, &b, &a, ma, ma/2, 0, 0)
				}
			}
		})
	}
}

// TestNeighborListNaNPose scores a pose with a NaN coordinate: every
// kernel must return NaN, as the full scan does, not a finite energy that
// dropped the atom.
func TestNeighborListNaNPose(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		f := newSpotFixture(t, molecule.Synthetic2BSMReceptor(), molecule.Synthetic2BSMLigand(), 1)
		spot := f.spots[0]
		nl := f.spotList(spot)
		pose := f.samplerPoses(spot, rng.New(3), 1)[0]
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

// TestSelectTier is the tier choice as a function of the CPUID and XGETBV
// words, including the states a hypervisor or an old OS leaves behind.
func TestSelectTier(t *testing.T) {
	const (
		ecx1 = cpuPOPCNT | cpuOSXSAVE
		ebx7 = cpuAVX2 | cpuAVX512F | cpuAVX512VL
		xcr0 = 1 | xcrYMM | xcrZMM // x87 too, as every OS sets it
	)
	for _, c := range []struct {
		name string
		w    cpuWords
		want tier
	}{
		{"all present", cpuWords{7, ecx1, ebx7, xcr0}, tierAVX512},
		{"leaf 7 unsupported", cpuWords{6, ecx1, ebx7, xcr0}, tierPortable},
		{"AVX2 without OS-saved YMM state", cpuWords{13, ecx1, cpuAVX2, 1 | 1<<1}, tierPortable},
		{"no OSXSAVE", cpuWords{13, cpuPOPCNT, ebx7, 0}, tierPortable},
		{"no POPCNT", cpuWords{13, cpuOSXSAVE, ebx7, xcr0}, tierPortable},
		{"AVX-512 without AVX2", cpuWords{13, ecx1, cpuAVX512F | cpuAVX512VL, xcr0}, tierPortable},
		{"AVX2 only", cpuWords{13, ecx1, cpuAVX2, 1 | xcrYMM}, tierAVX2},
		{"AVX-512F/VL without opmask and ZMM state", cpuWords{13, ecx1, ebx7, 1 | xcrYMM}, tierAVX2},
		{"AVX-512F/VL with opmask state only", cpuWords{13, ecx1, ebx7, 1 | xcrYMM | 1<<5}, tierAVX2},
		{"AVX-512F without VL", cpuWords{13, ecx1, cpuAVX2 | cpuAVX512F, xcr0}, tierAVX2},
	} {
		if got := selectTier(c.w); got != c.want {
			t.Errorf("%s: %+v selects %s, want %s", c.name, c.w, got, c.want)
		}
	}
	if got := selectTier(readCPU()); got != hostTier {
		t.Errorf("this CPU selects %s now, %s at init", got, hostTier)
	}
	t.Logf("this CPU runs the %s tier", hostTier)
}
