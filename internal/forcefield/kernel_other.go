//go:build !amd64

package forcefield

import "github.com/metascreen/metascreen/internal/vec"

// Off amd64 the portable loops of neighbor.go are the only kernels. The
// stubs let the tests that compare kernels build; they skip on !haveAVX2.

const haveAVX2 = false

func rangePassAVX2([]float64, []float64, []float64, vec.V3, []int32, []float64) int {
	panic("forcefield: AVX2 kernel called off amd64")
}

func gatherSpanAVX2([]float64, []float64, []float64, int, int, [3]float64, [3]float64, *NeighborScratch, int) int {
	panic("forcefield: AVX2 kernel called off amd64")
}
