package metascreen_test

import (
	"testing"

	metascreen "github.com/metascreen/metascreen"
)

// TestFacadeQuickstart exercises the public API end to end exactly as the
// README shows it, without touching internal packages directly.
func TestFacadeQuickstart(t *testing.T) {
	ds := metascreen.Dataset2BSM()
	problem, err := metascreen.NewProblem(ds.Receptor, ds.Ligand,
		metascreen.SpotOptions{MaxSpots: 4}, metascreen.ForceFieldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	alg, err := metascreen.NewPaperMetaheuristic("M3", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	backend, err := metascreen.NewHostBackend(problem, metascreen.HostConfig{Real: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := metascreen.Run(problem, alg, backend, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Evaluated() {
		t.Fatal("no best pose")
	}
	if len(res.Spots) != 4 {
		t.Errorf("%d spot results", len(res.Spots))
	}
}

func TestFacadePoolBackend(t *testing.T) {
	problem, err := metascreen.NewProblemFromDataset(metascreen.Dataset2BSM(), metascreen.ForceFieldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	alg, err := metascreen.NewPaperMetaheuristic("M1", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	backend, err := metascreen.NewPoolBackend(problem, metascreen.PoolConfig{
		Specs: []metascreen.DeviceSpec{metascreen.TeslaK40c, metascreen.GTX580},
		Mode:  metascreen.Heterogeneous,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := metascreen.Run(problem, alg, backend, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedSeconds <= 0 {
		t.Error("no simulated time")
	}
}

func TestFacadeTables(t *testing.T) {
	tab, err := metascreen.RunTable(8, metascreen.TableConfig{Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Number != 8 || len(tab.Rows) != 4 {
		t.Errorf("table = %d with %d rows", tab.Number, len(tab.Rows))
	}
	if _, err := metascreen.RunTable(3, metascreen.TableConfig{}); err == nil {
		t.Error("table 3 accepted")
	}
}

func TestFacadeCatalogueAndMachines(t *testing.T) {
	if len(metascreen.DeviceCatalogue()) < 4 {
		t.Error("catalogue too small")
	}
	if metascreen.Jupiter().CPUCores != 12 || metascreen.Hertz().CPUCores != 4 {
		t.Error("machines wrong")
	}
}
