package core

import (
	"testing"

	"github.com/metascreen/metascreen/internal/conformation"
	"github.com/metascreen/metascreen/internal/rng"
)

// makeConfs builds n random unscored conformations on the problem's first
// spot, returned as the pointer slice the backend API takes.
func makeConfs(p *Problem, n int, seed uint64) []*conformation.Conformation {
	sampler := conformation.NewSampler(p.Spots[0], p.LigandRadius())
	r := rng.New(seed)
	backing := make([]conformation.Conformation, n)
	confs := make([]*conformation.Conformation, n)
	for i := range backing {
		backing[i] = sampler.Random(r)
		confs[i] = &backing[i]
	}
	return confs
}

// TestScoreBatchZeroAllocSteadyState is the allocation budget of the batched
// scoring hot path at the compute layer: once the pose arena is warmed, a
// generation's worth of scoring performs zero heap allocations.
func TestScoreBatchZeroAllocSteadyState(t *testing.T) {
	p := smallProblem(t)
	b, err := NewHostBackend(p, HostConfig{Real: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	confs := makeConfs(p, 64, 11)
	var arena poseArena
	b.comp.scoreBatch(confs, &arena) // warm the arena
	if allocs := testing.AllocsPerRun(20, func() {
		b.comp.scoreBatch(confs, &arena)
	}); allocs != 0 {
		t.Errorf("%.1f allocs per batched call, want 0", allocs)
	}
}

// TestImproveZeroAllocSteadyState pins the improve kernel's budget for rigid
// ligands: stochastic hill climbing with a reused pose buffer is alloc-free.
func TestImproveZeroAllocSteadyState(t *testing.T) {
	p := smallProblem(t)
	b, err := NewHostBackend(p, HostConfig{Real: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sampler := conformation.NewSampler(p.Spots[0], p.LigandRadius())
	confs := makeConfs(p, 1, 12)
	var arena poseArena
	b.comp.scoreBatch(confs, &arena)
	var lane rng.Source
	rng.New(3).SplitInto(1, &lane)
	item := ImproveItem{Conf: confs[0], Sampler: sampler, RNG: &lane}
	if allocs := testing.AllocsPerRun(20, func() {
		b.comp.improve(item, 4, conformation.DefaultMoveScale, &arena)
	}); allocs != 0 {
		t.Errorf("improve allocates %.1f per item, want 0", allocs)
	}
}

// TestHostScoreBatchAllocsConstant checks the full backend path: per-call
// allocations are a small constant independent of batch size, i.e. ~0
// allocations per pose in steady state.
func TestHostScoreBatchAllocsConstant(t *testing.T) {
	p := smallProblem(t)
	b, err := NewHostBackend(p, HostConfig{Real: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	small := makeConfs(p, 8, 21)
	large := makeConfs(p, 256, 22)
	b.ScoreBatch(large) // warm the worker scratch to the largest size
	perSmall := testing.AllocsPerRun(20, func() { b.ScoreBatch(small) })
	perLarge := testing.AllocsPerRun(20, func() { b.ScoreBatch(large) })
	if perLarge != perSmall {
		t.Errorf("allocations scale with batch size: %.1f for 8 poses, %.1f for 256", perSmall, perLarge)
	}
	// One closure for the parallel-for is tolerated; per-pose work is free.
	if perSmall > 2 {
		t.Errorf("%.1f allocs per ScoreBatch call, want <= 2", perSmall)
	}
}

// TestPoseArenaReuse is the pool-reuse regression test: resize reuses the
// backing arrays whenever capacity suffices, the per-pose subslices alias
// disjoint spans of the flat buffer, and their capacities are clipped so an
// append cannot silently corrupt a neighbouring pose.
func TestPoseArenaReuse(t *testing.T) {
	var a poseArena
	a.resize(8, 10)
	if len(a.flat) != 80 || len(a.poses) != 8 || len(a.out) != 8 {
		t.Fatalf("sizes after resize(8,10): flat=%d poses=%d out=%d", len(a.flat), len(a.poses), len(a.out))
	}
	for i := range a.poses {
		if len(a.poses[i]) != 10 || cap(a.poses[i]) != 10 {
			t.Fatalf("pose %d: len=%d cap=%d, want 10/10", i, len(a.poses[i]), cap(a.poses[i]))
		}
		if &a.poses[i][0] != &a.flat[i*10] {
			t.Fatalf("pose %d does not alias the flat buffer", i)
		}
	}
	p0 := &a.flat[0]
	a.resize(4, 10) // shrink: must reuse
	if &a.flat[0] != p0 {
		t.Error("shrinking reallocated the flat buffer")
	}
	a.resize(8, 10) // regrow within capacity: must reuse
	if &a.flat[0] != p0 {
		t.Error("regrowing within capacity reallocated the flat buffer")
	}
	if allocs := testing.AllocsPerRun(10, func() { a.resize(8, 10) }); allocs != 0 {
		t.Errorf("steady-state resize allocates %.1f, want 0", allocs)
	}
	a.resize(9, 10) // beyond capacity: must grow correctly
	if len(a.flat) != 90 || len(a.poses) != 9 || len(a.out) != 9 {
		t.Fatalf("sizes after growth: flat=%d poses=%d out=%d", len(a.flat), len(a.poses), len(a.out))
	}
}

// TestHostBackendScratchPersists checks the worker workspaces live on the
// backend, not the call: two generations share one arena allocation.
func TestHostBackendScratchPersists(t *testing.T) {
	p := smallProblem(t)
	b, err := NewHostBackend(p, HostConfig{Real: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	confs := makeConfs(p, 16, 31)
	b.ScoreBatch(confs)
	if len(b.scratch) != 1 || len(b.scratch[0].flat) == 0 {
		t.Fatal("no warmed worker arena after ScoreBatch")
	}
	ptr := &b.scratch[0].flat[0]
	b.ScoreBatch(confs)
	if &b.scratch[0].flat[0] != ptr {
		t.Error("second generation reallocated the worker arena")
	}
}
