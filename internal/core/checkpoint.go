package core

import (
	"github.com/metascreen/metascreen/internal/conformation"
	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/vec"
)

// Checkpointing for library screens. A screen over a large library is the
// long-running production workload (the paper: "hundreds of CPU hours for
// each ligand"); the checkpoint records every completed ligand so an
// interrupted screen resumes where it stopped instead of re-docking.

// PoseRecord is a serializable conformation. Records written by older
// builds may carry a "torsions" field; decoding ignores it.
type PoseRecord struct {
	Spot        int        `json:"spot"`
	Translation vec.V3     `json:"translation"`
	Orientation [4]float64 `json:"orientation"` // w, x, y, z
	Score       float64    `json:"score"`
}

// poseRecord converts a conformation.
func poseRecord(c conformation.Conformation) PoseRecord {
	return PoseRecord{
		Spot:        c.Spot,
		Translation: c.Translation,
		Orientation: [4]float64{c.Orientation.W, c.Orientation.X, c.Orientation.Y, c.Orientation.Z},
		Score:       c.Score,
	}
}

// Conformation converts back.
func (p PoseRecord) Conformation() conformation.Conformation {
	c := conformation.New(p.Spot, p.Translation, vec.Quat{
		W: p.Orientation[0], X: p.Orientation[1], Y: p.Orientation[2], Z: p.Orientation[3],
	})
	c.Score = p.Score
	return c
}

// LigandRecord is one completed ligand job in a checkpoint.
type LigandRecord struct {
	Name             string     `json:"name"`
	Atoms            int        `json:"atoms"`
	Best             PoseRecord `json:"best"`
	Evaluations      int64      `json:"evaluations"`
	SimulatedSeconds float64    `json:"simulated_seconds"`
}

// Checkpoint is a resumable screen state. The zero value is an empty
// checkpoint ready for use.
type Checkpoint struct {
	// Seed must match the screen's seed; resuming with a different seed
	// would silently mix runs.
	Seed uint64 `json:"seed"`
	// Ligands holds completed jobs keyed by ligand name.
	Ligands map[string]LigandRecord `json:"ligands"`
}

// ligandRecord captures one completed run in checkpoint form.
func ligandRecord(lig *molecule.Molecule, res *Result) LigandRecord {
	return LigandRecord{
		Name:             lig.Name,
		Atoms:            lig.NumAtoms(),
		Best:             poseRecord(res.Best),
		Evaluations:      res.Evaluations,
		SimulatedSeconds: res.SimulatedSeconds,
	}
}

// recordResult reconstructs a Result from a checkpoint record. Fault
// counters are not checkpointed, so a resumed ligand contributes only its
// pose, evaluations and modeled time — exactly what the ranking and the
// work totals need.
func recordResult(rec LigandRecord) *Result {
	return &Result{
		Best:             rec.Best.Conformation(),
		Evaluations:      rec.Evaluations,
		SimulatedSeconds: rec.SimulatedSeconds,
	}
}

// CheckpointFunc observes checkpoint growth during a resumable screen. It
// is called with the screen's checkpoint mutex held — cp is consistent and
// must not be retained past the call — with the record just added, and
// newlyCompleted counts the ligands this run has finished so far (resumed
// ligands excluded). The screening service journals the records every N
// calls. A non-nil error aborts the screen; the checkpoint keeps
// everything completed so far.
type CheckpointFunc func(cp *Checkpoint, rec LigandRecord, newlyCompleted int) error
