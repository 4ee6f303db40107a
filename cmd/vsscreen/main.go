// Command vsscreen runs a library screen: a set of ligands is docked
// against one receptor and ranked by best binding energy, with optional
// CSV output — the drug-discovery funnel the paper motivates.
//
// Usage:
//
//	vsscreen -dataset 2BSM -library 20
//	vsscreen -receptor rec.pdb -ligands a.pdb,b.pdb,c.pdb -csv out.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/report"
	"github.com/metascreen/metascreen/internal/surface"
)

func main() {
	dataset := flag.String("dataset", "", "receptor from a benchmark dataset (2BSM or 2BXG)")
	receptorPath := flag.String("receptor", "", "receptor PDB file (alternative to -dataset)")
	ligandPaths := flag.String("ligands", "", "comma-separated ligand PDB files")
	librarySize := flag.Int("library", 10, "size of the synthetic ligand library when -ligands is not given")
	spots := flag.Int("spots", 6, "surface spots per ligand job")
	mh := flag.String("mh", "M3", "metaheuristic (M1..M4)")
	mhScale := flag.Float64("mh-scale", 0.03, "metaheuristic budget scale")
	seed := flag.Uint64("seed", 7, "random seed")
	csvPath := flag.String("csv", "", "also write the ranking to this CSV file")
	flag.Parse()
	if err := checkFlags(*mh, *librarySize, *spots, *mhScale); err != nil {
		fatal(err)
	}

	receptor, err := loadReceptor(*dataset, *receptorPath)
	if err != nil {
		fatal(err)
	}
	rec, err := core.PrepareReceptor(receptor, surface.Options{MaxSpots: *spots})
	if err != nil {
		fatal(err)
	}
	library, err := loadLibrary(*ligandPaths, *librarySize)
	if err != nil {
		fatal(err)
	}

	algf := func() (metaheuristic.Algorithm, error) {
		return metaheuristic.NewPaper(*mh, *mhScale)
	}
	fmt.Printf("screening %d ligands against %s (%d atoms) over %d spots with %s\n",
		len(library), receptor.Name, receptor.NumAtoms(), len(rec.Spots()), *mh)

	res, err := core.ScreenReceptorCtx(context.Background(), rec, library,
		algf, core.HostBackendFactory(core.HostConfig{Real: true}), *seed, 0, nil, nil)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("done: %d scoring evaluations\n\nranking:\n", res.Evaluations)
	for i, e := range res.Ranking {
		fmt.Printf("  %2d. %-12s (%2d atoms)  %10.3f kcal/mol at spot %d\n",
			i+1, e.Ligand.Name, e.Ligand.NumAtoms(), e.Result.Best.Score, e.Result.Best.Spot)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := report.ScreenCSV(f, res); err != nil {
			fatal(err)
		}
		fmt.Printf("\nranking written to %s\n", *csvPath)
	}
}

// checkFlags rejects flag values that would otherwise pass the banner and
// then fail every ligand.
func checkFlags(mh string, library, spots int, mhScale float64) error {
	switch {
	case !slices.Contains(metaheuristic.PaperNames(), mh):
		return fmt.Errorf("-mh %q: want one of %s", mh, strings.Join(metaheuristic.PaperNames(), ", "))
	case library < 1:
		return fmt.Errorf("-library %d: want 1 or more", library)
	case spots < 0:
		return fmt.Errorf("-spots %d: want 0 (receptorAtoms/100) or more", spots)
	case !(mhScale > 0 && mhScale <= 1):
		return fmt.Errorf("-mh-scale %g: want a number in (0, 1]", mhScale)
	}
	return nil
}

func loadReceptor(dataset, path string) (*molecule.Molecule, error) {
	if dataset != "" {
		ds, err := core.DatasetByName(dataset)
		if err != nil {
			return nil, err
		}
		return ds.Receptor, nil
	}
	if path == "" {
		return nil, fmt.Errorf("need -dataset or -receptor")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return molecule.ReadPDB(f)
}

func loadLibrary(paths string, synthetic int) ([]*molecule.Molecule, error) {
	if paths == "" {
		return core.SyntheticLibrary(synthetic), nil
	}
	var lib []*molecule.Molecule
	for _, p := range strings.Split(paths, ",") {
		f, err := os.Open(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		m, err := molecule.ReadPDB(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		lib = append(lib, m)
	}
	return lib, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vsscreen:", err)
	os.Exit(1)
}
