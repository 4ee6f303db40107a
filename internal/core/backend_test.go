package core

import (
	"math"
	"testing"

	"github.com/metascreen/metascreen/internal/conformation"
	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/vec"
)

func TestNewComputeKinds(t *testing.T) {
	p := smallProblem(t)
	if _, ok := newCompute(p, false).(*modeledCompute); !ok {
		t.Error("modeled mode did not build the surrogate")
	}
	rc, ok := newCompute(p, true).(*realCompute)
	if !ok {
		t.Fatal("real mode did not build the force field")
	}
	if len(rc.nl) != len(p.Spots) {
		t.Errorf("real compute has %d neighbor lists for %d spots", len(rc.nl), len(p.Spots))
	}
}

func TestModeledComputeSurrogateProperties(t *testing.T) {
	p := smallProblem(t)
	mc := newModeledCompute(p)
	r := rng.New(83)
	sampler := conformation.NewSampler(p.Spots[1], p.LigandRadius())
	// The surrogate has a well-defined optimum: improving with many moves
	// converges toward the hidden target, and more moves never score
	// worse than fewer.
	c1 := sampler.Random(r)
	c2 := c1
	mc.score(&c1, nil)
	mc.score(&c2, nil)
	few, many := c1, c2
	mc.improve(ImproveItem{Conf: &few, Sampler: sampler}, 2, conformation.DefaultMoveScale, nil)
	mc.improve(ImproveItem{Conf: &many, Sampler: sampler}, 64, conformation.DefaultMoveScale, nil)
	if many.Score > few.Score {
		t.Errorf("64 moves (%v) worse than 2 moves (%v)", many.Score, few.Score)
	}
	if !many.Better(c1) {
		t.Error("improve did not improve the surrogate score")
	}
}

// TestScoreBatchLockstepMatchesSingle scores batches of 1, 2, 3 and 63
// conformations whose spot changes every three entries, so runs split
// pairs, with one conformation moved out of its spot's region, and
// requires scoreBatch to assign each the bits the single-pose path gives
// it.
func TestScoreBatchLockstepMatchesSingle(t *testing.T) {
	p := smallProblem(t)
	comp := newCompute(p, true)
	samplers := make([]*conformation.Sampler, len(p.Spots))
	for i, s := range p.Spots {
		samplers[i] = conformation.NewSampler(s, p.LigandRadius())
	}
	r := rng.New(71)
	var batch, single poseArena
	for _, n := range []int{1, 2, 3, 63} {
		backing := make([]conformation.Conformation, n)
		confs := make([]*conformation.Conformation, n)
		for i := range backing {
			backing[i] = samplers[(i/3)%len(samplers)].Random(r)
			confs[i] = &backing[i]
		}
		if n > 1 {
			backing[1].Translation = backing[1].Translation.Add(vec.New(0, 0, 100))
		}
		comp.scoreBatch(confs, &batch)
		for i, c := range confs {
			alone := *c
			alone.Score = conformation.Unscored
			comp.score(&alone, &single)
			if math.Float64bits(c.Score) != math.Float64bits(alone.Score) {
				t.Errorf("batch %d conformation %d (spot %d): batched %v, alone %v", n, i, c.Spot, c.Score, alone.Score)
			}
		}
	}
}
