package forcefield

import "github.com/metascreen/metascreen/internal/vec"

// The neighbour list's three inner loops — the per-run gather, the range
// pass and the energy pass — come in tiers: the portable Go loops of
// neighbor.go, which run everywhere and are the oracle, and the vector
// kernels of kernel_amd64.s. Every tier stores and returns the portable
// loops' bits. init picks the best tier the CPU and OS run, once, from the
// CPUID and XGETBV words; there is no flag, build tag or environment
// variable.

// tier names one set of inner loops.
type tier int

const (
	tierPortable tier = iota
	// tierAVX2 runs the gather and range pass four float64 lanes per
	// instruction; the energy pass stays portable.
	tierAVX2
	// tierAVX512 runs all three loops eight lanes per instruction.
	tierAVX512
	numTiers
)

func (t tier) String() string {
	return [...]string{"portable", "avx2", "avx512"}[t]
}

// hostTier is the tier this process runs.
var hostTier = selectTier(readCPU())

func init() { useTier(hostTier) }

// useTier points the kernel variables at t's loops.
func useTier(t tier) {
	k := tierKernels(t)
	rangePass, gatherSpan, energyPass = k.rangePass, k.gatherSpan, k.energyPass
}

// kernelSet is one tier's loops.
type kernelSet struct {
	rangePass  func(s *poseScratch, n int, p vec.V3) int
	gatherSpan func(x, y, z []float64, k0, k1 int, c, h [3]float64, s *poseScratch, n int) int
	energyPass func(row *ljRow, a, b *poseScratch, ma, mb int, ea, eb float64) (float64, float64)
}

// portableKernels are the loops of neighbor.go.
var portableKernels = kernelSet{rangePassGo, gatherSpanGo, energyPassGo}

// cpuWords are the words tier selection reads: CPUID leaf 0 EAX (the
// highest standard leaf), leaf 1 ECX, leaf 7 subleaf 0 EBX, and XCR0's low
// word from XGETBV, which is 0 unless leaf 1 reports OSXSAVE.
type cpuWords struct {
	maxLeaf, ecx1, ebx7, xcr0 uint32
}

// CPUID and XCR0 feature bits.
const (
	cpuPOPCNT   = 1 << 23 // leaf 1 ECX
	cpuOSXSAVE  = 1 << 27 // leaf 1 ECX
	cpuAVX2     = 1 << 5  // leaf 7 EBX
	cpuAVX512F  = 1 << 16 // leaf 7 EBX
	cpuAVX512VL = 1 << 31 // leaf 7 EBX
	// xcrYMM is the SSE and AVX state; xcrZMM the opmask, ZMM_Hi256 and
	// Hi16_ZMM state (XCR0 bits 1–2 and 5–7).
	xcrYMM = 1<<1 | 1<<2
	xcrZMM = 1<<5 | 1<<6 | 1<<7
)

// selectTier returns the best tier the words allow. The vector tiers need
// leaf 7, POPCNT, OSXSAVE and the OS saving the YMM state; AVX-512 also
// needs AVX512F and AVX512VL and the OS saving the opmask and ZMM state,
// which some hypervisors withhold while CPUID still reports the features.
func selectTier(w cpuWords) tier {
	if w.maxLeaf < 7 || w.ecx1&cpuPOPCNT == 0 || w.ecx1&cpuOSXSAVE == 0 ||
		w.xcr0&xcrYMM != xcrYMM || w.ebx7&cpuAVX2 == 0 {
		return tierPortable
	}
	if w.ebx7&cpuAVX512F != 0 && w.ebx7&cpuAVX512VL != 0 && w.xcr0&xcrZMM == xcrZMM {
		return tierAVX512
	}
	return tierAVX2
}
