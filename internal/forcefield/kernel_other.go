//go:build !amd64

package forcefield

// Off amd64 the portable loops of neighbor.go are the only kernels.

func readCPU() cpuWords { return cpuWords{} }

// tierKernels returns t's loops; every tier is portable here, and
// selectTier never picks another from readCPU's zero words.
func tierKernels(tier) kernelSet { return portableKernels }
