// Package conformation defines the candidate solutions of the docking
// optimization: rigid-body poses of a ligand copy anchored to one surface
// spot, together with the pose-space moves the metaheuristics use
// (initialization, recombination and local-search perturbation).
package conformation

import (
	"fmt"
	"math"

	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/surface"
	"github.com/metascreen/metascreen/internal/vec"
)

// Conformation is one individual: a rigid-body pose of the ligand at a
// specific receptor spot. The paper calls these "copies of the same ligand
// placed at each spot", a.k.a. individuals.
type Conformation struct {
	// Spot is the ID of the surface spot this individual belongs to.
	// Spots are independent sub-problems; individuals never migrate.
	Spot int
	// Translation is the position of the ligand centroid.
	Translation vec.V3
	// Orientation is the rigid-body rotation applied about the centroid.
	Orientation vec.Quat
	// Score is the cached energy of this pose; math.MaxFloat64 marks an
	// unevaluated conformation.
	Score float64
}

// Unscored is the sentinel Score of a conformation not yet evaluated.
const Unscored = math.MaxFloat64

// New returns an unscored conformation.
func New(spot int, t vec.V3, q vec.Quat) Conformation {
	return Conformation{Spot: spot, Translation: t, Orientation: q.Unit(), Score: Unscored}
}

// Evaluated reports whether the conformation's Score is valid.
func (c Conformation) Evaluated() bool { return c.Score != Unscored }

// Apply writes the posed ligand coordinates into dst, which must have
// len(ligand) entries: dst[i] = Translation + Orientation * ligand[i].
// The ligand is stored centered, so Translation is the pose centroid.
func (c Conformation) Apply(ligand []vec.V3, dst []vec.V3) {
	if len(dst) != len(ligand) {
		panic(fmt.Sprintf("conformation: dst has %d atoms, ligand %d", len(dst), len(ligand)))
	}
	m := c.Orientation.Mat3()
	for i, p := range ligand {
		dst[i] = m.MulV(p).Add(c.Translation)
	}
}

// Posed returns freshly allocated posed coordinates; use Apply with a reused
// buffer in hot paths.
func (c Conformation) Posed(ligand []vec.V3) []vec.V3 {
	dst := make([]vec.V3, len(ligand))
	c.Apply(ligand, dst)
	return dst
}

// Better reports whether c has a strictly better (lower) score than o.
// Unevaluated conformations compare worse than any evaluated one.
func (c Conformation) Better(o Conformation) bool { return c.Score < o.Score }

// String implements fmt.Stringer.
func (c Conformation) String() string {
	if !c.Evaluated() {
		return fmt.Sprintf("conf(spot=%d, t=%v, unscored)", c.Spot, c.Translation)
	}
	return fmt.Sprintf("conf(spot=%d, t=%v, score=%.3f)", c.Spot, c.Translation, c.Score)
}

// Sampler generates and perturbs conformations for one spot.
type Sampler struct {
	spot surface.Spot
	// standoff is the initial placement distance above the spot center
	// along the outward normal, keeping new individuals clear of the
	// surface before optimization pulls them in.
	standoff float64
}

// NewSampler returns a Sampler for the spot. ligandRadius sets the standoff
// of initial placements.
func NewSampler(spot surface.Spot, ligandRadius float64) *Sampler {
	return &Sampler{spot: spot, standoff: ligandRadius + 1.5}
}

// Random returns a fresh random individual: position uniform in the spot's
// search sphere biased along the outward normal, orientation uniform over
// SO(3).
func (s *Sampler) Random(r *rng.Source) Conformation {
	base := s.spot.Center.Add(s.spot.Normal.Scale(s.standoff))
	pos := base.Add(r.InSphere(s.spot.Radius))
	return New(s.spot.ID, s.clamp(pos), r.Quat())
}

// Combine produces a child pose from two parents: the translation is a
// random convex blend, the orientation a slerp at the same blend factor,
// a standard recombination for rigid-body docking.
func (s *Sampler) Combine(r *rng.Source, a, b Conformation) Conformation {
	t := r.Float64()
	pos := a.Translation.Lerp(b.Translation, t)
	q := a.Orientation.Slerp(b.Orientation, t)
	return New(s.spot.ID, s.clamp(pos), q)
}

// MoveScale bounds a local-search step: maximum translation in angstroms
// and maximum rigid rotation in radians.
type MoveScale struct {
	MaxTranslate float64
	MaxRotate    float64
}

// DefaultMoveScale is the local-search step used by the Improve phase.
var DefaultMoveScale = MoveScale{MaxTranslate: 1.0, MaxRotate: 0.35}

// Perturb returns a neighbour of c: translation jittered within
// scale.MaxTranslate and orientation rotated by at most scale.MaxRotate,
// clamped to the spot region. The result is unscored.
func (s *Sampler) Perturb(r *rng.Source, c Conformation, scale MoveScale) Conformation {
	pos := c.Translation.Add(r.InSphere(scale.MaxTranslate))
	q := r.SmallQuat(scale.MaxRotate).Mul(c.Orientation)
	return New(s.spot.ID, s.clamp(pos), q)
}

// clamp projects pos back into the spot's search sphere (centered at the
// standoff point) so individuals cannot drift to other regions: spots must
// remain independent sub-problems.
func (s *Sampler) clamp(pos vec.V3) vec.V3 {
	base := s.spot.Center.Add(s.spot.Normal.Scale(s.standoff))
	d := pos.Sub(base)
	if d.Norm2() <= s.spot.Radius*s.spot.Radius {
		return pos
	}
	return base.Add(d.Unit().Scale(s.spot.Radius))
}

// Contains reports whether the conformation lies inside the sampler's
// search region (with a small tolerance for floating-point round-off).
func (s *Sampler) Contains(c Conformation) bool {
	base := s.spot.Center.Add(s.spot.Normal.Scale(s.standoff))
	return c.Translation.Dist(base) <= s.spot.Radius+1e-9
}

// Spot returns the spot this sampler serves.
func (s *Sampler) Spot() surface.Spot { return s.spot }
