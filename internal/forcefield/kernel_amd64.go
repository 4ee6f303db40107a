package forcefield

import "github.com/metascreen/metascreen/internal/vec"

// readCPU reads the words selectTier takes. XGETBV runs only when the OS
// has enabled it (OSXSAVE); otherwise it would fault.
func readCPU() cpuWords {
	var w cpuWords
	w.maxLeaf, _, _, _ = cpuid(0, 0)
	if w.maxLeaf < 7 {
		return w
	}
	_, _, w.ecx1, _ = cpuid(1, 0)
	if w.ecx1&cpuOSXSAVE != 0 {
		w.xcr0 = xgetbv()
	}
	_, w.ebx7, _, _ = cpuid(7, 0)
	return w
}

// tierKernels returns t's loops.
func tierKernels(t tier) kernelSet {
	switch t {
	case tierAVX2:
		return kernelSet{rangePassAVX2, gatherSpanAVX2, energyPassGo}
	case tierAVX512:
		return kernelSet{rangePassAVX512, gatherSpanAVX512, energyPassAVX512}
	}
	return portableKernels
}

// rangePassAVX2 is rangePass with four candidates per instruction: the
// kernel takes the candidates in whole groups of four and rangeFrom the
// rest.
func rangePassAVX2(s *poseScratch, n int, p vec.V3) int {
	n4, m := n&^3, 0
	if n4 > 0 {
		// The kernel reads candidates 0..n4-1 and stores hit slots
		// 0..n4-1 at most.
		_, _, _, _, _ = s.x[n4-1], s.y[n4-1], s.z[n4-1], s.typ[n4-1], s.r2[n4-1]
		_ = s.col[n4-1]
		m = rangeAVX2(&s.x[0], &s.y[0], &s.z[0], &s.typ[0], n4, p.X, p.Y, p.Z, Cutoff*Cutoff,
			&s.r2[0], &s.col[0])
	}
	return rangeFrom(s, n, p, n4, m)
}

// rangePassAVX512 is rangePass with eight candidates per instruction, the
// last group masked.
func rangePassAVX512(s *poseScratch, n int, p vec.V3) int {
	if n == 0 {
		return 0
	}
	// The kernel reads candidates 0..n-1 and stores hit slots 0..n+6 at
	// most.
	last := n + slack - 2
	_, _, _, _, _ = s.x[n-1], s.y[n-1], s.z[n-1], s.typ[n-1], s.r2[last]
	_ = s.col[last]
	return rangeAVX512(&s.x[0], &s.y[0], &s.z[0], &s.typ[0], n, p.X, p.Y, p.Z, Cutoff*Cutoff,
		&s.r2[0], &s.col[0])
}

// energyPassAVX512 is energyPass with eight hits per instruction and the
// two poses' sums interleaved.
func energyPassAVX512(row *ljRow, a, b *poseScratch, ma, mb int, ea, eb float64) (float64, float64) {
	ra, ca := hitPtrs(a, ma)
	rb, cb := hitPtrs(b, mb)
	return energyAVX512(row, ra, ca, ma, rb, cb, mb, ea, eb)
}

// hitPtrs returns the first of m hits of s, both nil when m is 0.
func hitPtrs(s *poseScratch, m int) (r2 *float64, col *int32) {
	if m == 0 {
		return nil, nil
	}
	_, _ = s.r2[m-1], s.col[m-1]
	return &s.r2[0], &s.col[0]
}

// gatherSpanAVX2 is gatherSpan with four atoms per instruction: the kernel
// takes the span's whole groups of four and gatherSpanGo the rest.
func gatherSpanAVX2(x, y, z []float64, k0, k1 int, c, h [3]float64, s *poseScratch, n int) int {
	k4 := k0 + (k1-k0)&^3
	if k4 > k0 {
		// The kernel's last store ends at slot n + (k4-k0) - 1 at most.
		last := n + k4 - k0 - 1
		_, _, _ = x[k4-1], y[k4-1], z[k4-1]
		_, _, _, _ = s.x[last], s.y[last], s.z[last], s.idx[last]
		n += gatherAVX2(&x[k0], &y[k0], &z[k0], k4-k0, &c, &h, 4*Cutoff*Cutoff,
			&s.x[n], &s.y[n], &s.z[n], &s.idx[n], k0)
	}
	return gatherSpanGo(x, y, z, k4, k1, c, h, s, n)
}

// gatherSpanAVX512 is gatherSpan with eight atoms per instruction, the
// last group masked.
func gatherSpanAVX512(x, y, z []float64, k0, k1 int, c, h [3]float64, s *poseScratch, n int) int {
	if k1 <= k0 {
		return n
	}
	// The kernel reads atoms k0..k1-1 and stores slots n..n+(k1-k0)+6 at
	// most.
	last := n + k1 - k0 + slack - 2
	_, _, _ = x[k1-1], y[k1-1], z[k1-1]
	_, _, _, _ = s.x[last], s.y[last], s.z[last], s.idx[last]
	return n + gatherAVX512(&x[k0], &y[k0], &z[k0], k1-k0, &c, &h, 4*Cutoff*Cutoff,
		&s.x[n], &s.y[n], &s.z[n], &s.idx[n], k0)
}

// compact[mask] holds, for the lanes set in a 4-bit keep mask, the
// controls that move them to the front in lane order: perm is the VPERMD
// control for float64 lanes, lane the VPERMILPS control for int32 lanes.
// The lanes past the mask's count are don't-care. An entry is 64 bytes, so
// the kernels index the table by mask<<6.
var compact = compactTable()

type compactEntry struct {
	perm [8]uint32
	lane [4]uint32
	_    [4]uint32
}

func compactTable() (t [16]compactEntry) {
	for mask := range t {
		i := 0
		for l := uint32(0); l < 4; l++ {
			if mask&(1<<l) != 0 {
				t[mask].perm[2*i], t[mask].perm[2*i+1] = 2*l, 2*l+1
				t[mask].lane[i] = l
				i++
			}
		}
	}
	return t
}

// laneMask[k] is the opmask of the first k of 8 lanes; laneIndex lists
// the lanes.
var (
	laneMask  = [9]uint16{0, 1, 3, 7, 15, 31, 63, 127, 255}
	laneIndex = [8]int32{0, 1, 2, 3, 4, 5, 6, 7}
)

// energyConst holds the energy kernel's broadcast constants.
var energyConst = [2]float64{minDist2, 1}

// Implemented in kernel_amd64.s.

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// rangeAVX2 runs the range pass over the first n candidates, n a multiple
// of 4, storing from slot 0, and returns the count. Its stores may reach 3
// slots past the count, never past slot n-1.
//
//go:noescape
func rangeAVX2(cx, cy, cz *float64, typ *int32, n int, px, py, pz, cutoff2 float64, r2 *float64, col *int32) (m int)

// rangeAVX512 runs the range pass over n > 0 candidates, storing from slot
// 0, and returns the count. Its loads stop at candidate n-1; its stores may
// reach 7 slots past the count, never past slot n+6.
//
//go:noescape
func rangeAVX512(cx, cy, cz *float64, typ *int32, n int, px, py, pz, cutoff2 float64, r2 *float64, col *int32) (m int)

// energyAVX512 adds the terms of ma hits at ra, ca to ea and of mb hits at
// rb, cb to eb. Its loads stop at hit m-1 of each pose.
//
//go:noescape
func energyAVX512(row *ljRow, ra *float64, ca *int32, ma int, rb *float64, cb *int32, mb int, ea, eb float64) (sa, sb float64)

// gatherAVX512 runs the gather over n > 0 atoms, the first of which is
// list atom k0, storing from the output pointers, and returns the count.
// Its loads stop at atom n-1; its stores may reach 7 slots past the count,
// never past slot n+6.
//
//go:noescape
func gatherAVX512(x, y, z *float64, n int, c, h *[3]float64, lim float64, ox, oy, oz *float64, oi *int32, k0 int) (m int)

// gatherAVX2 runs the gather over n atoms, n a multiple of 4, the first of
// which is list atom k0, storing from the output pointers, and returns the
// count. Its stores may reach 3 slots past the count, never past slot n-1.
//
//go:noescape
func gatherAVX2(x, y, z *float64, n int, c, h *[3]float64, lim float64, ox, oy, oz *float64, oi *int32, k0 int) (m int)
