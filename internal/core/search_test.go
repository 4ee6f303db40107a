package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/metascreen/metascreen/internal/cudasim"
	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/sched"
)

// sameResult fails t unless the timeline's result equals the engine's in
// every field but WallSeconds, floats to the bit. A run cut by its budget
// carries no per-spot outcomes in the timeline's result.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	bits := func(f float64) uint64 { return math.Float64bits(f) }
	if bits(got.SimulatedSeconds) != bits(want.SimulatedSeconds) {
		t.Errorf("%s: simulated seconds %v, want %v", what, got.SimulatedSeconds, want.SimulatedSeconds)
	}
	if bits(got.EnergyJoules) != bits(want.EnergyJoules) {
		t.Errorf("%s: energy %v, want %v", what, got.EnergyJoules, want.EnergyJoules)
	}
	if got.Evaluations != want.Evaluations || got.Generations != want.Generations || got.DeadlineHit != want.DeadlineHit {
		t.Errorf("%s: evaluations/generations/deadline %d/%d/%v, want %d/%d/%v", what,
			got.Evaluations, got.Generations, got.DeadlineHit, want.Evaluations, want.Generations, want.DeadlineHit)
	}
	if bits(got.Best.Score) != bits(want.Best.Score) || !reflect.DeepEqual(got.Best, want.Best) {
		t.Errorf("%s: best %+v, want %+v", what, got.Best, want.Best)
	}
	if got.Algorithm != want.Algorithm || got.Backend != want.Backend {
		t.Errorf("%s: names %s/%s, want %s/%s", what, got.Algorithm, got.Backend, want.Algorithm, want.Backend)
	}
	if got.DeviceFaults != want.DeviceFaults || got.SchedRetries != want.SchedRetries || got.Resplits != want.Resplits {
		t.Errorf("%s: fault totals %d/%d/%d, want %d/%d/%d", what,
			got.DeviceFaults, got.SchedRetries, got.Resplits, want.DeviceFaults, want.SchedRetries, want.Resplits)
	}
	if !reflect.DeepEqual(got.History, want.History) || !reflect.DeepEqual(got.WarmupFactors, want.WarmupFactors) {
		t.Errorf("%s: history or warm-up factors differ", what)
	}
	wantSpots := want.Spots
	if want.DeadlineHit {
		wantSpots = nil
	}
	if !reflect.DeepEqual(got.Spots, wantSpots) {
		t.Errorf("%s: per-spot outcomes differ", what)
	}
}

// TestTimelineEqualsRun is the contract of the Modeled split: one search
// replayed on a configuration's clock equals core.Run (or RunBudget) on an
// identical fresh backend, bit for bit, for the OpenMP host, a homogeneous
// GPU subset, all GPUs under each static split, the dynamic pool and a
// pool that loses a device mid-run, with no budget, a budget that cuts
// before generation 1 and one that cuts mid-run.
func TestTimelineEqualsRun(t *testing.T) {
	p := budgetProblem(t)
	jupiter := []cudasim.DeviceSpec{
		cudasim.GTX590, cudasim.GTX590, cudasim.GTX590, cudasim.GTX590,
		cudasim.TeslaC2075, cudasim.TeslaC2075,
	}
	configs := []struct {
		name string
		make func(fail float64) (Backend, error)
	}{
		{"openmp", func(float64) (Backend, error) {
			return NewHostBackend(p, HostConfig{ModelCores: 12, ModelClockMHz: 2000})
		}},
		{"homog-subset", func(float64) (Backend, error) {
			return NewPoolBackend(p, PoolConfig{Specs: jupiter[:4], Mode: sched.Homogeneous})
		}},
		{"all-homog", func(float64) (Backend, error) {
			return NewPoolBackend(p, PoolConfig{Specs: jupiter, Mode: sched.Homogeneous})
		}},
		{"all-heter", func(float64) (Backend, error) {
			return NewPoolBackend(p, PoolConfig{Specs: jupiter, Mode: sched.Heterogeneous, NoiseAmp: 0.05, Seed: 9})
		}},
		{"dynamic", func(float64) (Backend, error) {
			return NewPoolBackend(p, PoolConfig{Specs: hertzSpecs(), Mode: sched.Dynamic, ChunkSize: 48})
		}},
		{"heter-device-lost", func(fail float64) (Backend, error) {
			return NewPoolBackend(p, PoolConfig{Specs: hertzSpecs(), Mode: sched.Heterogeneous,
				Faults: []cudasim.FaultPlan{{}, {FailAt: fail}}})
		}},
	}
	for _, name := range metaheuristic.PaperNames() {
		alg, err := metaheuristic.NewPaper(name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		const seed = 11
		search, err := RunSearch(p, alg, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range configs {
			fresh := func(fail float64) Backend {
				t.Helper()
				b, err := c.make(fail)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			full, err := Run(p, alg, fresh(math.Inf(1)), seed)
			if err != nil {
				t.Fatal(err)
			}
			// The device-lost pool fails its second device halfway.
			fail := full.SimulatedSeconds / 2
			budgets := []float64{0, 1e-12, full.SimulatedSeconds / 2}
			if ref, err := Run(p, alg, fresh(fail), seed); err != nil {
				t.Fatal(err)
			} else if n := len(ref.History); n > 1 {
				// A budget equal to a generation's start clock cuts there.
				budgets = append(budgets, ref.History[n/2].SimSeconds)
			}
			for _, budget := range budgets {
				what := fmt.Sprintf("%s on %s, budget %g", name, c.name, budget)
				var want *Result
				if budget > 0 {
					want, err = RunBudget(p, alg, fresh(fail), seed, budget)
				} else {
					want, err = Run(p, alg, fresh(fail), seed)
				}
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				got, err := search.Timeline(fresh(fail), budget)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				sameResult(t, what, got, want)
				switch {
				case budget == 1e-12 && got.Generations != 0:
					t.Errorf("%s: %d generations, want a cut before generation 1", what, got.Generations)
				case budget > 1e-12 && name != "M4" && (!got.DeadlineHit || got.Generations == 0):
					t.Errorf("%s: %d generations, deadline hit %v; want a cut mid-run", what, got.Generations, got.DeadlineHit)
				}
				if c.name == "heter-device-lost" && budget == 0 && name != "M4" && got.Resplits == 0 {
					t.Errorf("%s: no re-split, the fault did not fire", what)
				}
			}
		}
	}
}

// TestSearchShardsEqualWhole: a Modeled search split into contiguous spot
// ranges and merged equals the whole search bit for bit, and so does a
// timeline of it, for every paper metaheuristic at 1, 2 and 7 ranges on
// 2BSM (32 spots) and 2BXG (86 spots), spot counts 7 does not divide.
func TestSearchShardsEqualWhole(t *testing.T) {
	for _, ds := range []Dataset{Dataset2BSM(), Dataset2BXG()} {
		p, err := NewProblemFromDataset(ds, forcefield.Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := len(p.Spots)
		for _, name := range metaheuristic.PaperNames() {
			alg, err := metaheuristic.NewPaper(name, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			const seed = 13
			whole, err := RunSearch(p, alg, seed)
			if err != nil {
				t.Fatal(err)
			}
			timeline := func(s *Search) *Result {
				t.Helper()
				b, err := NewPoolBackend(p, PoolConfig{Specs: hertzSpecs(), Mode: sched.Heterogeneous, NoiseAmp: 0.05, Seed: 9})
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Timeline(b, 0)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := timeline(whole)
			for _, k := range []int{1, 2, 7} {
				what := fmt.Sprintf("%s %s in %d ranges", ds.Name, name, k)
				parts := make([]*Search, k)
				for r := range parts {
					if parts[r], err = RunSearchSpots(p, alg, seed, n*r/k, n*(r+1)/k); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
				}
				merged, err := MergeSearches(parts)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !reflect.DeepEqual(merged, whole) {
					t.Errorf("%s: merged search differs from the whole search", what)
				}
				sameResult(t, what, timeline(merged), want)
			}
		}
	}
	p := smallProblem(t)
	if _, err := RunSearchSpots(p, smallAlg(t), 1, 1, 0); err == nil {
		t.Error("an inverted spot range was accepted")
	}
	if _, err := RunSearchSpots(p, smallAlg(t), 1, 0, len(p.Spots)+1); err == nil {
		t.Error("a spot range past the last spot was accepted")
	}
	var mixed []*Search
	for _, name := range []string{"M1", "M4"} {
		alg, err := metaheuristic.NewPaper(name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := RunSearchSpots(p, alg, 1, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		mixed = append(mixed, s)
	}
	if _, err := MergeSearches(mixed); err == nil {
		t.Error("searches of two metaheuristics were merged")
	}
	if _, err := MergeSearches(nil); err == nil {
		t.Error("an empty merge was accepted")
	}
}

// TestTimelineErrors: a timeline refuses a Real-mode backend and a
// negative budget, and reports a pool that loses every device as core.Run
// does.
func TestTimelineErrors(t *testing.T) {
	p := smallProblem(t)
	alg := smallAlg(t)
	search, err := RunSearch(p, alg, 3)
	if err != nil {
		t.Fatal(err)
	}
	realMode, err := NewHostBackend(p, HostConfig{Real: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := search.Timeline(realMode, 0); err == nil {
		t.Error("timeline accepted a Real-mode backend")
	}
	modeled, err := NewHostBackend(p, HostConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := search.Timeline(modeled, -1); err == nil {
		t.Error("timeline accepted a negative budget")
	}
	lost := func() Backend {
		b, err := NewPoolBackend(p, PoolConfig{Specs: hertzSpecs(), Mode: sched.Homogeneous,
			Faults: []cudasim.FaultPlan{{FailAt: 1e-12}, {FailAt: 1e-12}}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	_, runErr := Run(p, alg, lost(), 3)
	_, tlErr := search.Timeline(lost(), 0)
	if runErr == nil || tlErr == nil || runErr.Error() != tlErr.Error() {
		t.Errorf("device loss: timeline error %v, run error %v", tlErr, runErr)
	}
}
