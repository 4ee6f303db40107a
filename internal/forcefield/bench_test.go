package forcefield

import (
	"testing"

	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/vec"
)

// benchFixtures builds a 2BSM-scale scoring problem with a surface pose.
func benchFixtures(b *testing.B) (rec, lig *Topology, pose []vec.V3) {
	b.Helper()
	recM := molecule.Synthetic2BSMReceptor()
	ligM := molecule.Synthetic2BSMLigand()
	rec = NewTopology(recM)
	lig = NewTopology(ligM)
	r := rng.New(1)
	center := recM.Centroid().Add(r.UnitVector().Scale(recM.Radius() * 0.9))
	pose = make([]vec.V3, lig.Len())
	for i, p := range lig.Pos {
		pose[i] = p.Add(center)
	}
	return rec, lig, pose
}

func BenchmarkDirect2BSM(b *testing.B) {
	rec, lig, pose := benchFixtures(b)
	s := NewDirect(rec, lig)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Score(pose)
	}
}

func BenchmarkCellList2BSM(b *testing.B) {
	rec, lig, pose := benchFixtures(b)
	s := NewCellList(rec, lig)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Score(pose)
	}
}

// nlBenchFixtures builds what the engine's default Real-mode hot path
// scores: the first 2BSM spot's neighbour list and a batch of poses from
// that spot's sampler. It also returns the two work counts of the batch,
// both per ligand atom and both exact (they repeat run to run): the
// candidates the pair loop scans after the gather, and the pairs inside the
// cutoff — their ratio is the pruning left on the table.
func nlBenchFixtures(b *testing.B) (nl *NeighborList, poses [][]vec.V3, scanned, inRange float64) {
	b.Helper()
	f := newSpotFixture(b, molecule.Synthetic2BSMReceptor(), molecule.Synthetic2BSMLigand(), 4)
	spot := f.spots[0]
	nl = f.spotList(spot)
	poses = f.samplerPoses(spot, rng.New(1), 64)
	var s poseScratch
	for _, pose := range poses {
		n, _ := nl.gather(pose, &s)
		scanned += float64(n)
		inRange += float64(nl.pairsInRange(pose)) / float64(len(pose))
	}
	return nl, poses, scanned / float64(len(poses)), inRange / float64(len(poses))
}

// reportNL reports a neighbour-list benchmark's rate and work counts.
func reportNL(b *testing.B, evals int, scanned, inRange float64) {
	b.ReportMetric(float64(evals)/b.Elapsed().Seconds(), "evals/s")
	b.ReportMetric(scanned, "candidates/lig-atom")
	b.ReportMetric(inRange, "in-cutoff/lig-atom")
}

func BenchmarkNeighborList2BSM(b *testing.B) {
	nl, poses, scanned, inRange := nlBenchFixtures(b)
	var s NeighborScratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = nl.ScorePose(poses[i%len(poses)], &s)
	}
	reportNL(b, b.N, scanned, inRange)
}

func BenchmarkNeighborListBatch2BSM(b *testing.B) {
	nl, poses, scanned, inRange := nlBenchFixtures(b)
	out := make([]float64, len(poses))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nl.ScoreBatch(poses, out)
	}
	benchSink = out[0]
	reportNL(b, b.N*len(poses), scanned, inRange)
}

// BenchmarkNeighborListBatch2BSMPortable runs the batch benchmark on the
// portable loops, the only kernel off amd64 or without AVX2.
func BenchmarkNeighborListBatch2BSMPortable(b *testing.B) {
	defer useForTest(tierPortable)()
	BenchmarkNeighborListBatch2BSM(b)
}

// BenchmarkNeighborListBatch2BSMAVX2 runs the batch benchmark on the AVX2
// tier.
func BenchmarkNeighborListBatch2BSMAVX2(b *testing.B) {
	if hostTier < tierAVX2 {
		b.Skipf("CPU runs %s, not avx2", hostTier)
	}
	defer useForTest(tierAVX2)()
	BenchmarkNeighborListBatch2BSM(b)
}

// benchSink keeps the compiler from discarding benchmarked scores.
var benchSink float64
