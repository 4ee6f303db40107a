// Package bench holds metascreen's top-level benchmark harness: one
// benchmark per result table of the paper (Tables 6-9), microbenchmarks of
// the real scoring kernels, and the ablation studies listed in DESIGN.md.
//
// The table benchmarks replay the paper's full-scale workloads through the
// modeled backends and report the simulated execution times as custom
// metrics (sim-openmp-s, sim-het-s, ...), alongside the real time the
// replay took. Run them with:
//
//	go test -bench=Table -benchmem
package metascreen_test

import (
	"fmt"
	"testing"

	"github.com/metascreen/metascreen/internal/conformation"
	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/cudasim"
	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/sched"
	"github.com/metascreen/metascreen/internal/surface"
	"github.com/metascreen/metascreen/internal/tables"
	"github.com/metascreen/metascreen/internal/vec"
)

// benchScale trades fidelity for time in the table benchmarks: 1.0 replays
// the full paper workload on every iteration. 0.5 keeps each table row
// under ~1 s while preserving the full-scale shape for M4 (the dominant
// row) and the ordering of all columns.
const benchScale = 0.5

// benchTable runs one paper table row per sub-benchmark and reports the
// four simulated times the table's columns hold.
func benchTable(b *testing.B, number int) {
	exp, err := tables.ExperimentByNumber(number)
	if err != nil {
		b.Fatal(err)
	}
	for _, mh := range metaheuristic.PaperNames() {
		mh := mh
		b.Run(mh, func(b *testing.B) {
			var row tables.Row
			for i := 0; i < b.N; i++ {
				row, err = tables.RunRow(exp, mh, tables.Config{Scale: benchScale, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.OpenMP, "sim-openmp-s")
			if !isNaN(row.HomogeneousSystem) {
				b.ReportMetric(row.HomogeneousSystem, "sim-homogsys-s")
			}
			b.ReportMetric(row.HetHomogComputation, "sim-het/homog-s")
			b.ReportMetric(row.HetHetComputation, "sim-het/het-s")
			b.ReportMetric(row.SpeedupHetVsHomog(), "speedup-het")
			b.ReportMetric(row.SpeedupOpenMPVsHet(), "speedup-openmp")
		})
	}
}

func isNaN(f float64) bool { return f != f }

// BenchmarkTable6 regenerates the paper's Table 6 (Jupiter, PDB:2BSM).
func BenchmarkTable6(b *testing.B) { benchTable(b, 6) }

// BenchmarkTable7 regenerates the paper's Table 7 (Jupiter, PDB:2BXG).
func BenchmarkTable7(b *testing.B) { benchTable(b, 7) }

// BenchmarkTable8 regenerates the paper's Table 8 (Hertz, PDB:2BSM).
func BenchmarkTable8(b *testing.B) { benchTable(b, 8) }

// BenchmarkTable9 regenerates the paper's Table 9 (Hertz, PDB:2BXG).
func BenchmarkTable9(b *testing.B) { benchTable(b, 9) }

// --- real scoring-kernel microbenchmarks -------------------------------

// benchTopologies builds the 2BSM-sized scoring problem.
func benchTopologies() (rec, lig *forcefield.Topology, pose []vec.V3) {
	recM := molecule.Synthetic2BSMReceptor()
	ligM := molecule.Synthetic2BSMLigand().Centered()
	rec = forcefield.NewTopology(recM)
	lig = forcefield.NewTopology(ligM)
	// A pose at the receptor surface, where real docking evaluates.
	r := rng.New(1)
	center := recM.Centroid().Add(r.UnitVector().Scale(recM.Radius()))
	pose = make([]vec.V3, len(lig.Pos))
	for i, p := range lig.Pos {
		pose[i] = p.Add(center)
	}
	return rec, lig, pose
}

func benchScorer(b *testing.B, mk func(rec, lig *forcefield.Topology) forcefield.Scorer) {
	rec, lig, pose := benchTopologies()
	s := mk(rec, lig)
	pairs := float64(len(rec.Pos) * len(lig.Pos))
	b.ResetTimer()
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += s.Score(pose)
	}
	b.StopTimer()
	if sum != sum {
		b.Fatal("NaN energy")
	}
	b.ReportMetric(pairs*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpairs/s")
}

// BenchmarkScorerDirect measures the reference O(R*L) scoring loop on the
// 2BSM workload (146 880 atom pairs per evaluation).
func BenchmarkScorerDirect(b *testing.B) {
	benchScorer(b, func(rec, lig *forcefield.Topology) forcefield.Scorer {
		return forcefield.NewDirect(rec, lig)
	})
}

// BenchmarkScorerCellList measures the cutoff-exploiting neighbour-grid
// scorer.
func BenchmarkScorerCellList(b *testing.B) {
	benchScorer(b, func(rec, lig *forcefield.Topology) forcefield.Scorer {
		return forcefield.NewCellList(rec, lig)
	})
}

// BenchmarkRealScreening measures a small end-to-end Real-mode run
// (receptor 600 atoms, 4 spots, scatter search).
func BenchmarkRealScreening(b *testing.B) {
	rec := molecule.SyntheticProtein("rec", 600, 31)
	lig := molecule.SyntheticLigand("lig", 12, 32)
	problem, err := core.NewProblem(rec, lig, surface.Options{MaxSpots: 4}, forcefield.Options{})
	if err != nil {
		b.Fatal(err)
	}
	alg, err := metaheuristic.NewScatterSearch("ss", metaheuristic.Params{
		PopulationPerSpot: 16, SelectFraction: 1,
		ImproveFraction: 0.5, ImproveMoves: 3, Generations: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		backend, err := core.NewHostBackend(problem, core.HostConfig{Real: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Run(problem, alg, backend, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations (DESIGN.md) ----------------------------------------------

// ablationProblem is the shared modeled workload for the scheduler
// ablations: the 2BSM problem with the M2 metaheuristic at half scale on
// the Hertz node.
func ablationRun(b *testing.B, cfg core.PoolConfig) float64 {
	b.Helper()
	problem, err := core.NewProblemFromDataset(core.Dataset2BSM(), forcefield.Options{})
	if err != nil {
		b.Fatal(err)
	}
	alg, err := metaheuristic.NewPaper("M2", 0.5)
	if err != nil {
		b.Fatal(err)
	}
	if cfg.Specs == nil {
		cfg.Specs = []cudasim.DeviceSpec{cudasim.TeslaK40c, cudasim.GTX580}
	}
	backend, err := core.NewPoolBackend(problem, cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Run(problem, alg, backend, 1)
	if err != nil {
		b.Fatal(err)
	}
	return res.SimulatedSeconds
}

// BenchmarkAblationWarmup sweeps the warm-up iteration count: too few
// iterations measure noise, too many waste time. The paper uses five to
// ten.
func BenchmarkAblationWarmup(b *testing.B) {
	for _, iters := range []int{1, 2, 5, 10, 20, 40} {
		b.Run(fmt.Sprintf("iters=%d", iters), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				sim = ablationRun(b, core.PoolConfig{
					Mode:        sched.Heterogeneous,
					WarmupIters: iters,
					NoiseAmp:    0.05,
					Seed:        1,
				})
			}
			b.ReportMetric(sim, "sim-s")
		})
	}
}

// BenchmarkAblationGranularity sweeps the CUDA block granularity
// (warps per block): coarse blocks quantize the partition and erode the
// heterogeneous gain.
func BenchmarkAblationGranularity(b *testing.B) {
	for _, wpb := range []int{1, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("warpsPerBlock=%d", wpb), func(b *testing.B) {
			var hom, het float64
			for i := 0; i < b.N; i++ {
				hom = ablationRun(b, core.PoolConfig{
					Mode: sched.Homogeneous, WarpsPerBlock: wpb, Seed: 1,
				})
				het = ablationRun(b, core.PoolConfig{
					Mode: sched.Heterogeneous, WarpsPerBlock: wpb, Seed: 1,
				})
			}
			b.ReportMetric(het, "sim-het-s")
			b.ReportMetric(hom/het, "gain")
		})
	}
}

// BenchmarkAblationDynamic sweeps the cooperative-scheduling chunk size
// against the static partitions.
func BenchmarkAblationDynamic(b *testing.B) {
	for _, chunk := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				sim = ablationRun(b, core.PoolConfig{
					Mode: sched.Dynamic, ChunkSize: chunk, Seed: 1,
				})
			}
			b.ReportMetric(sim, "sim-s")
		})
	}
}

// BenchmarkAblationPipeline sweeps the stream-pipelining depth: overlap of
// chunk uploads with kernels hides part of the PCIe traffic.
func BenchmarkAblationPipeline(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				sim = ablationRun(b, core.PoolConfig{
					Mode:          sched.Heterogeneous,
					PipelineDepth: depth,
					Seed:          1,
				})
			}
			b.ReportMetric(sim, "sim-s")
		})
	}
}

// BenchmarkAblationScaling sweeps the receptor size: the paper observes
// that the GPU advantage grows with the number of receptor atoms (more
// spots and more pairs per conformation).
func BenchmarkAblationScaling(b *testing.B) {
	for _, atoms := range []int{1000, 2000, 4000, 8000} {
		b.Run(fmt.Sprintf("atoms=%d", atoms), func(b *testing.B) {
			rec := molecule.SyntheticProtein("rec", atoms, 71)
			lig := molecule.SyntheticLigand("lig", 32, 72)
			problem, err := core.NewProblem(rec, lig, surface.Options{}, forcefield.Options{})
			if err != nil {
				b.Fatal(err)
			}
			var cpuT, gpuT float64
			for i := 0; i < b.N; i++ {
				alg, err := metaheuristic.NewPaper("M3", 0.25)
				if err != nil {
					b.Fatal(err)
				}
				hb, err := core.NewHostBackend(problem, core.HostConfig{
					ModelCores: 4, ModelClockMHz: 3100,
				})
				if err != nil {
					b.Fatal(err)
				}
				hres, err := core.Run(problem, alg, hb, 1)
				if err != nil {
					b.Fatal(err)
				}
				pb, err := core.NewPoolBackend(problem, core.PoolConfig{
					Specs: []cudasim.DeviceSpec{cudasim.TeslaK40c, cudasim.GTX580},
					Mode:  sched.Heterogeneous,
					Seed:  1,
				})
				if err != nil {
					b.Fatal(err)
				}
				pres, err := core.Run(problem, alg, pb, 1)
				if err != nil {
					b.Fatal(err)
				}
				cpuT, gpuT = hres.SimulatedSeconds, pres.SimulatedSeconds
			}
			b.ReportMetric(cpuT/gpuT, "speedup")
		})
	}
}

// BenchmarkAblationJobLevel compares the paper's batched execution (all
// spots' conformations in shared per-generation grids) with job-level
// scheduling (one spot's whole run per device). Batched wins on wide GPUs
// because single-spot batches cannot fill their warp slots.
func BenchmarkAblationJobLevel(b *testing.B) {
	problem, err := core.NewProblemFromDataset(core.Dataset2BSM(), forcefield.Options{})
	if err != nil {
		b.Fatal(err)
	}
	specs := []cudasim.DeviceSpec{cudasim.TeslaK40c, cudasim.GTX580}
	var batched, jobs float64
	for i := 0; i < b.N; i++ {
		batched, jobs, err = core.CompareExecutionModels(problem, "M3", 0.5, specs, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(batched, "sim-batched-s")
	b.ReportMetric(jobs, "sim-jobs-s")
	b.ReportMetric(jobs/batched, "batched-advantage")
}

// BenchmarkDeadlineQuality measures the paper's real-time-constraint
// claim: under the same simulated deadline, the heterogeneous split
// completes more generations than the homogeneous one, reaching better
// solutions. Reported metrics: generations completed per mode.
func BenchmarkDeadlineQuality(b *testing.B) {
	rec := molecule.SyntheticProtein("rec", 3000, 61)
	lig := molecule.SyntheticLigand("lig", 20, 62)
	problem, err := core.NewProblem(rec, lig, surface.Options{MaxSpots: 8}, forcefield.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []sched.Mode{sched.Homogeneous, sched.Heterogeneous} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			var gens int
			var best float64
			for i := 0; i < b.N; i++ {
				alg, err := metaheuristic.NewScatterSearch("ss", metaheuristic.Params{
					PopulationPerSpot: 256, SelectFraction: 1,
					ImproveFraction: 0.5, ImproveMoves: 4, Generations: 400,
				})
				if err != nil {
					b.Fatal(err)
				}
				backend, err := core.NewPoolBackend(problem, core.PoolConfig{
					Specs: []cudasim.DeviceSpec{cudasim.TeslaK40c, cudasim.GTX580},
					Mode:  mode,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.RunBudget(problem, alg, backend, 1, 0.5)
				if err != nil {
					b.Fatal(err)
				}
				gens, best = res.Generations, res.Best.Score
			}
			b.ReportMetric(float64(gens), "generations")
			b.ReportMetric(best, "best-score")
		})
	}
}

// BenchmarkConformationApply measures the rigid-body pose transform, the
// per-warp preamble of the scoring kernel.
func BenchmarkConformationApply(b *testing.B) {
	lig := molecule.Synthetic2BSMLigand()
	pos := lig.Positions()
	dst := make([]vec.V3, len(pos))
	r := rng.New(1)
	c := conformation.New(0, r.InSphere(30), r.Quat())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Apply(pos, dst)
	}
}
