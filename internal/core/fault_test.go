package core

import (
	"errors"
	"testing"

	"github.com/metascreen/metascreen/internal/cudasim"
	"github.com/metascreen/metascreen/internal/sched"
	"github.com/metascreen/metascreen/internal/surface"
)

func hertzSpecs() []cudasim.DeviceSpec {
	return []cudasim.DeviceSpec{cudasim.TeslaK40c, cudasim.GTX580}
}

// TestPoolBackendSurvivesDeviceLoss: a heterogeneous run whose GTX580 dies
// mid-screen finishes with byte-identical results (scores come from the
// host; faults perturb only the timeline) and a bounded slowdown.
func TestPoolBackendSurvivesDeviceLoss(t *testing.T) {
	p := smallProblem(t)
	mk := func(faults []cudasim.FaultPlan) *Result {
		t.Helper()
		b, err := NewPoolBackend(p, PoolConfig{
			Real:   true,
			Specs:  hertzSpecs(),
			Mode:   sched.Heterogeneous,
			Faults: faults,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(p, smallAlg(t), b, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := mk(nil)
	if base.DeviceFaults != 0 || base.Resplits != 0 {
		t.Fatalf("unfaulted run reports faults: %+v", base)
	}
	faulted := mk([]cudasim.FaultPlan{{}, {FailAt: base.SimulatedSeconds / 2}})

	if faulted.Best.Score != base.Best.Score || faulted.Best.Translation != base.Best.Translation {
		t.Errorf("faulted best %v differs from baseline %v", faulted.Best, base.Best)
	}
	if faulted.Evaluations != base.Evaluations {
		t.Errorf("faulted evaluations %d != baseline %d", faulted.Evaluations, base.Evaluations)
	}
	if faulted.DeviceFaults < 1 {
		t.Errorf("DeviceFaults = %d, want >= 1", faulted.DeviceFaults)
	}
	if faulted.Resplits < 1 {
		t.Errorf("Resplits = %d, want >= 1", faulted.Resplits)
	}
	if faulted.SimulatedSeconds <= base.SimulatedSeconds {
		t.Errorf("faulted makespan %v not slower than baseline %v",
			faulted.SimulatedSeconds, base.SimulatedSeconds)
	}
	if faulted.SimulatedSeconds > 2*base.SimulatedSeconds {
		t.Errorf("faulted makespan %v > 2x baseline %v",
			faulted.SimulatedSeconds, base.SimulatedSeconds)
	}
}

// TestPoolBackendAllDevicesLost: losing every device is an error, not a
// silent success with fabricated results.
func TestPoolBackendAllDevicesLost(t *testing.T) {
	p := smallProblem(t)
	b, err := NewPoolBackend(p, PoolConfig{
		Specs: hertzSpecs(),
		Mode:  sched.Homogeneous,
		Faults: []cudasim.FaultPlan{
			{FailAt: 1e-12},
			{FailAt: 1e-12},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p, smallAlg(t), b, 3); !errors.Is(err, sched.ErrAllDevicesLost) {
		t.Errorf("Run err = %v, want ErrAllDevicesLost", err)
	}
}

// TestCheckpointResumeAfterDeviceFault: a permanent fault kills the screen
// on the third ligand; the checkpoint holds the two completed ones, the
// resume re-docks only the unfinished ligand, and the final ranking is
// identical to a run that never faulted.
func TestCheckpointResumeAfterDeviceFault(t *testing.T) {
	rec, lib := checkpointFixtures() // 3 ligands
	cleanCfg := PoolConfig{Real: true, Specs: hertzSpecs(), Mode: sched.Heterogeneous}
	countingFactory := func(failOnCall int) (BackendFactory, *int) {
		calls := 0
		f := func(p *Problem) (Backend, error) {
			calls++
			cfg := cleanCfg
			if calls == failOnCall {
				cfg.Faults = []cudasim.FaultPlan{{FailAt: 1e-12}, {FailAt: 1e-12}}
			}
			return NewPoolBackend(p, cfg)
		}
		return f, &calls
	}

	// Reference: the same screen with no fault anywhere.
	reff, _ := countingFactory(0)
	ref, err := ScreenResumable(rec, lib, surface.Options{MaxSpots: 2},
		screenAlgFactory(), reff, 5, &Checkpoint{})
	if err != nil {
		t.Fatal(err)
	}

	// Faulted pass: the backend for the third ligand loses both devices.
	cp := &Checkpoint{}
	faultf, _ := countingFactory(3)
	_, err = ScreenResumable(rec, lib, surface.Options{MaxSpots: 2},
		screenAlgFactory(), faultf, 5, cp)
	if !errors.Is(err, sched.ErrAllDevicesLost) {
		t.Fatalf("faulted screen err = %v, want ErrAllDevicesLost", err)
	}
	if len(cp.Ligands) != 2 {
		t.Fatalf("checkpoint holds %d ligands after the fault, want 2", len(cp.Ligands))
	}

	// Resume with healthy hardware: only the unfinished ligand runs.
	resumef, calls := countingFactory(0)
	res, err := ScreenResumable(rec, lib, surface.Options{MaxSpots: 2},
		screenAlgFactory(), resumef, 5, cp)
	if err != nil {
		t.Fatal(err)
	}
	if *calls != 1 {
		t.Errorf("resume built %d backends, want 1 (completed ligands must not re-dock)", *calls)
	}
	if len(res.Ranking) != len(ref.Ranking) {
		t.Fatalf("resumed ranking has %d entries, want %d", len(res.Ranking), len(ref.Ranking))
	}
	for i := range ref.Ranking {
		if res.Ranking[i].Ligand.Name != ref.Ranking[i].Ligand.Name ||
			res.Ranking[i].Result.Best.Score != ref.Ranking[i].Result.Best.Score {
			t.Errorf("rank %d: resumed %s/%v vs reference %s/%v", i,
				res.Ranking[i].Ligand.Name, res.Ranking[i].Result.Best.Score,
				ref.Ranking[i].Ligand.Name, ref.Ranking[i].Result.Best.Score)
		}
	}
}

// TestScreenAggregatesFaultCounters: per-ligand fault counters roll up
// into the screen totals.
func TestScreenAggregatesFaultCounters(t *testing.T) {
	rec, lib := checkpointFixtures()
	// Fault only the GTX580, late enough that runs complete: measure one
	// clean ligand run first to place the fault mid-run.
	probe, err := ScreenResumable(rec, lib[:1], surface.Options{MaxSpots: 2},
		screenAlgFactory(), PoolBackendFactory(PoolConfig{
			Real: true, Specs: hertzSpecs(), Mode: sched.Heterogeneous,
		}), 5, &Checkpoint{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := PoolConfig{
		Real:  true,
		Specs: hertzSpecs(),
		Mode:  sched.Heterogeneous,
		Faults: []cudasim.FaultPlan{
			{},
			{FailAt: probe.SimulatedSeconds / 2},
		},
	}
	res, err := ScreenResumable(rec, lib, surface.Options{MaxSpots: 2},
		screenAlgFactory(), PoolBackendFactory(cfg), 5, &Checkpoint{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeviceFaults < 1 {
		t.Errorf("screen DeviceFaults = %d, want >= 1", res.DeviceFaults)
	}
	if res.Resplits < 1 {
		t.Errorf("screen Resplits = %d, want >= 1", res.Resplits)
	}
}
