package forcefield

import "github.com/metascreen/metascreen/internal/vec"

// haveAVX2 reports whether the CPU and OS run the AVX2 kernels of
// kernel_amd64.s: CPUID reports AVX2, POPCNT and OSXSAVE, and XCR0 shows the
// OS saves the XMM and YMM state (bits 1 and 2).
var haveAVX2 = detectAVX2()

func init() {
	if haveAVX2 {
		rangePass, gatherSpan = rangePassAVX2, gatherSpanAVX2
	}
}

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const popcnt, osxsave = 1 << 23, 1 << 27
	if ecx1&popcnt == 0 || ecx1&osxsave == 0 || xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// rangePassAVX2 is rangePass with four candidates per instruction: the
// kernel takes the candidates in whole groups of four and rangeFrom the
// rest.
func rangePassAVX2(cx, cy, cz []float64, p vec.V3, hit []int32, r2s []float64) int {
	n := len(cx)
	cy, cz, hit, r2s = cy[:n], cz[:n], hit[:n], r2s[:n]
	n4, m := n&^3, 0
	if n4 > 0 {
		m = rangeAVX2(&cx[0], &cy[0], &cz[0], n4, p.X, p.Y, p.Z, Cutoff*Cutoff, &hit[0], &r2s[0])
	}
	return rangeFrom(cx, cy, cz, p, hit, r2s, n4, m)
}

// gatherSpanAVX2 is gatherSpan with four atoms per instruction: the kernel
// takes the span's whole groups of four and gatherSpanGo the rest.
func gatherSpanAVX2(x, y, z []float64, k0, k1 int, c, h [3]float64, s *NeighborScratch, n int) int {
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

// compactPerm[mask] is the VPERMD control that moves the float64 lanes set
// in the 4-bit mask to the front, in lane order; compactLane[mask] lists
// the same lanes as int32s. The lanes past the mask's count are don't-care.
var compactPerm, compactLane = compactTables()

func compactTables() (perm [16][8]uint32, lane [16][4]uint32) {
	for mask := range perm {
		i := 0
		for l := uint32(0); l < 4; l++ {
			if mask&(1<<l) != 0 {
				perm[mask][2*i], perm[mask][2*i+1] = 2*l, 2*l+1
				lane[mask][i] = l
				i++
			}
		}
	}
	return perm, lane
}

// Implemented in kernel_amd64.s.

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// rangeAVX2 runs the range pass over the first n candidates, n a multiple
// of 4, storing from slot 0, and returns the count. Its stores may reach 3
// slots past the count, never past slot n-1.
//
//go:noescape
func rangeAVX2(cx, cy, cz *float64, n int, px, py, pz, cutoff2 float64, hit *int32, r2 *float64) (m int)

// gatherAVX2 runs the gather over n atoms, n a multiple of 4, the first of
// which is list atom k0, storing from the output pointers, and returns the
// count. Its stores may reach 3 slots past the count, never past slot n-1.
//
//go:noescape
func gatherAVX2(x, y, z *float64, n int, c, h *[3]float64, lim float64, ox, oy, oz *float64, oi *int32, k0 int) (m int)
