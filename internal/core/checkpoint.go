package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"

	"github.com/metascreen/metascreen/internal/conformation"
	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/surface"
	"github.com/metascreen/metascreen/internal/vec"
)

// Checkpointing for library screens. A screen over a large library is the
// long-running production workload (the paper: "hundreds of CPU hours for
// each ligand"); the checkpoint records every completed ligand so an
// interrupted screen resumes where it stopped instead of re-docking.

// PoseRecord is a serializable conformation.
type PoseRecord struct {
	Spot        int        `json:"spot"`
	Translation vec.V3     `json:"translation"`
	Orientation [4]float64 `json:"orientation"` // w, x, y, z
	Torsions    []float64  `json:"torsions,omitempty"`
	Score       float64    `json:"score"`
}

// poseRecord converts a conformation.
func poseRecord(c conformation.Conformation) PoseRecord {
	return PoseRecord{
		Spot:        c.Spot,
		Translation: c.Translation,
		Orientation: [4]float64{c.Orientation.W, c.Orientation.X, c.Orientation.Y, c.Orientation.Z},
		Torsions:    c.Torsions,
		Score:       c.Score,
	}
}

// Conformation converts back.
func (p PoseRecord) Conformation() conformation.Conformation {
	c := conformation.New(p.Spot, p.Translation, vec.Quat{
		W: p.Orientation[0], X: p.Orientation[1], Y: p.Orientation[2], Z: p.Orientation[3],
	})
	c.Torsions = p.Torsions
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

// SaveCheckpoint serializes the checkpoint as JSON.
func SaveCheckpoint(w io.Writer, cp *Checkpoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cp)
}

// LoadCheckpoint deserializes a checkpoint.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	if cp.Ligands == nil {
		cp.Ligands = map[string]LigandRecord{}
	}
	return &cp, nil
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
// must not be retained past the call — and newlyCompleted counts the
// ligands this run has finished so far (resumed ligands excluded). The
// screening service snapshots cp to disk from this hook every N calls. A
// non-nil error aborts the screen; the checkpoint keeps everything
// completed so far.
type CheckpointFunc func(cp *Checkpoint, newlyCompleted int) error

// ScreenResumable is Screen with checkpointing: ligands already present in
// cp are skipped (their recorded results are used), and every newly
// completed ligand is added to cp before the next job starts. On error the
// checkpoint still holds everything completed so far, so callers can save
// it and resume later. It is ScreenResumableCtx without cancellation, with
// one worker — ligands run sequentially in library order.
func ScreenResumable(receptor *molecule.Molecule, library []*molecule.Molecule,
	spotOpts surface.Options, ff forcefield.Options,
	algf AlgorithmFactory, backf BackendFactory, seed uint64, cp *Checkpoint) (*ScreenResult, error) {
	return ScreenResumableCtx(context.Background(), receptor, library, spotOpts, ff,
		algf, backf, seed, 1, cp, nil)
}

// ScreenResumableCtx is the context-aware, ligand-parallel resumable
// screen (parity with ScreenCtx): ligands recorded in cp are skipped, the
// rest run on a bounded pool of `workers` goroutines (0 means one per
// CPU), and each completion is added to cp and reported to onUpdate before
// the next ligand of that worker starts. Seed lanes are keyed by ligand
// name, so the final ranking is byte-identical to an uninterrupted
// Screen/ScreenCtx run with the same seed, for every worker count and
// every split of the library across interrupted attempts. Cancelling ctx
// aborts in-flight ligands between metaheuristic generations; the
// checkpoint keeps everything completed before the abort.
func ScreenResumableCtx(ctx context.Context, receptor *molecule.Molecule, library []*molecule.Molecule,
	spotOpts surface.Options, ff forcefield.Options,
	algf AlgorithmFactory, backf BackendFactory, seed uint64, workers int,
	cp *Checkpoint, onUpdate CheckpointFunc) (*ScreenResult, error) {
	if cp == nil {
		return nil, fmt.Errorf("core: nil checkpoint (use Screen for one-shot runs)")
	}
	if cp.Ligands == nil {
		cp.Ligands = map[string]LigandRecord{}
		cp.Seed = seed
	}
	if cp.Seed != seed {
		return nil, fmt.Errorf("core: checkpoint seed %d does not match run seed %d", cp.Seed, seed)
	}
	if len(library) == 0 {
		return nil, fmt.Errorf("core: empty ligand library")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var pending []int
	for i, lig := range library {
		if seen[lig.Name] {
			return nil, fmt.Errorf("core: duplicate ligand name %q (checkpoints key by name)", lig.Name)
		}
		seen[lig.Name] = true
		if _, done := cp.Ligands[lig.Name]; !done {
			pending = append(pending, i)
		}
	}

	results := make([]*Result, len(library))
	if len(pending) > 0 {
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > len(pending) {
			workers = len(pending)
		}
		rec, err := prepareReceptor(receptor, spotOpts)
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()

		var (
			wg       sync.WaitGroup
			errMu    sync.Mutex
			firstErr error
			cpMu     sync.Mutex
			newly    int
		)
		fail := func(err error) {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
				cancel()
			}
			errMu.Unlock()
		}
		jobs := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					lig := library[i]
					res, err := screenLigand(ctx, rec, lig, ff, algf, backf, seed)
					if err != nil {
						fail(err)
						return
					}
					results[i] = res
					cpMu.Lock()
					cp.Ligands[lig.Name] = ligandRecord(lig, res)
					newly++
					if onUpdate != nil {
						err = onUpdate(cp, newly)
					}
					cpMu.Unlock()
					if err != nil {
						fail(fmt.Errorf("core: checkpoint update after %q: %w", lig.Name, err))
						return
					}
				}
			}()
		}
	feed:
		for _, i := range pending {
			select {
			case jobs <- i:
			case <-ctx.Done():
				break feed
			}
		}
		close(jobs)
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	// Aggregate in library order so floating-point sums are deterministic
	// and identical to an uninterrupted ScreenCtx run.
	out := &ScreenResult{}
	for i, lig := range library {
		if res := results[i]; res != nil {
			out.Ranking = append(out.Ranking, ScreenEntry{Ligand: lig, Result: res})
			out.addRun(res)
			continue
		}
		rec := cp.Ligands[lig.Name]
		res := recordResult(rec)
		out.Ranking = append(out.Ranking, ScreenEntry{Ligand: lig, Result: res})
		out.SimulatedSeconds += rec.SimulatedSeconds
		out.Evaluations += rec.Evaluations
	}
	sortRanking(out)
	return out, nil
}
