package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/service"
	"github.com/metascreen/metascreen/internal/surface"
)

// entriesOf flattens an engine result into the service's wire entries, the
// common currency of every ranking comparison here.
func entriesOf(res *core.ScreenResult) []service.RankEntry {
	out := make([]service.RankEntry, len(res.Ranking))
	for i, e := range res.Ranking {
		out[i] = service.RankEntry{
			Rank: i + 1, Ligand: e.Ligand.Name, Atoms: e.Ligand.NumAtoms(),
			Score: e.Result.Best.Score, Spot: e.Result.Best.Spot,
		}
	}
	return out
}

// digest hashes a ranking's order, score bits and spots: two rankings have
// equal digests exactly when they are byte-identical on the wire.
func digest(entries []service.RankEntry) string {
	h := sha256.New()
	var buf [8]byte
	for _, e := range entries {
		h.Write([]byte(e.Ligand))
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e.Score))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(e.Spot)))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// rankingProblem returns "" when entries rank every wanted ligand exactly
// once with finite scores in ascending (score, name) order, else what is
// wrong.
func rankingProblem(entries []service.RankEntry, want []string) string {
	if len(entries) != len(want) {
		return fmt.Sprintf("%d entries for %d ligands", len(entries), len(want))
	}
	wanted := make(map[string]bool, len(want))
	for _, n := range want {
		wanted[n] = true
	}
	seen := make(map[string]bool, len(entries))
	for i, e := range entries {
		switch {
		case !wanted[e.Ligand]:
			return fmt.Sprintf("unexpected ligand %q", e.Ligand)
		case seen[e.Ligand]:
			return fmt.Sprintf("ligand %q ranked twice", e.Ligand)
		case math.IsNaN(e.Score) || math.IsInf(e.Score, 0):
			return fmt.Sprintf("ligand %q has score %v", e.Ligand, e.Score)
		}
		seen[e.Ligand] = true
		if i > 0 {
			p := entries[i-1]
			if p.Score > e.Score || (p.Score == e.Score && p.Ligand > e.Ligand) {
				return fmt.Sprintf("entries %d and %d out of order", i-1, i)
			}
		}
	}
	return ""
}

// sameEntry compares what a ranking entry carries apart from its rank
// (ranks differ between a ligand screened alone and inside a library).
func sameEntry(a, b service.RankEntry) bool {
	return a.Ligand == b.Ligand && a.Atoms == b.Atoms && a.Spot == b.Spot &&
		math.Float64bits(a.Score) == math.Float64bits(b.Score)
}

// libraryNames lists the synthetic library's ligand names.
func libraryNames(lib []*molecule.Molecule) []string {
	out := make([]string, len(lib))
	for i, m := range lib {
		out[i] = m.Name
	}
	return out
}

// requestLibrary materialises the ligands a request screens, the way the
// service does.
func requestLibrary(req service.ScreenRequest) []*molecule.Molecule {
	lib := core.SyntheticLibrary(req.Library)
	if len(req.Ligands) == 0 {
		return lib
	}
	want := make(map[string]bool, len(req.Ligands))
	for _, n := range req.Ligands {
		want[n] = true
	}
	var out []*molecule.Molecule
	for _, m := range lib {
		if want[m.Name] {
			out = append(out, m)
		}
	}
	return out
}

// referenceScreen runs a host-backend request in process through the
// library API, exactly as the service's runner would: the reference every
// served ranking is compared with.
func referenceScreen(ctx context.Context, req service.ScreenRequest, workers int) (*core.ScreenResult, error) {
	req = req.Normalized()
	ds, err := core.DatasetByName(req.Dataset)
	if err != nil {
		return nil, err
	}
	algf := func() (metaheuristic.Algorithm, error) {
		return metaheuristic.NewPaper(req.Metaheuristic, req.Scale)
	}
	return core.ScreenCtx(ctx, ds.Receptor, requestLibrary(req), surface.Options{MaxSpots: req.Spots},
		forcefield.Options{}, algf, core.HostBackendFactory(core.HostConfig{Real: !req.Modeled}), req.Seed, workers)
}
