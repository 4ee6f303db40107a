package main

import (
	"context"
	"fmt"
	"time"

	"github.com/metascreen/metascreen/internal/admission"
	"github.com/metascreen/metascreen/internal/conformation"
	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/surface"
	"github.com/metascreen/metascreen/internal/vec"
	"github.com/metascreen/metascreen/internal/wal"
)

// Probes are single-threaded direct calls into one layer's public functions
// on the workload's own inputs. Each does a fixed amount of work (scaled by
// sizes.ProbeIters), is bracketed by a span, and reports a rate or a median.

// probeSink keeps the compiler from discarding probe results.
var probeSink float64

// sampleLigands picks up to three ligands spread over the library (first,
// middle, last), so probes see its range of sizes without costing a full
// pass.
func sampleLigands(lib []*molecule.Molecule) []*molecule.Molecule {
	if len(lib) <= 3 {
		return lib
	}
	return []*molecule.Molecule{lib[0], lib[len(lib)/2], lib[len(lib)-1]}
}

// probeForcefield measures the scoring kernels and the per-ligand set-up the
// engine runs before it can score: forcefield.* and core.*_build_ms.
func (r *run) probeForcefield(receptor *molecule.Molecule, lib []*molecule.Molecule, spots int) error {
	span := r.rec.begin("forcefield", "probe", "", 0)
	defer r.rec.end(span)
	iters := r.cfg.Sizes.ProbeIters
	const batch = 64

	var nlEvals, batchEvals, fullEvals int
	var nlSec, batchSec, fullSec, directSec, directPairs float64
	var nlBuildUs, problemMs, backendMs []float64
	for _, lig := range sampleLigands(lib) {
		t0 := time.Now()
		p, err := core.NewProblem(receptor, lig, surface.Options{MaxSpots: spots}, forcefield.Options{})
		if err != nil {
			return err
		}
		problemMs = append(problemMs, time.Since(t0).Seconds()*1e3)

		t0 = time.Now()
		if _, err := core.NewHostBackend(p, core.HostConfig{Real: true}); err != nil {
			return err
		}
		backendMs = append(backendMs, time.Since(t0).Seconds()*1e3)

		full, err := p.NewScorer("celllist")
		if err != nil {
			return err
		}
		cells, ok := full.(*forcefield.CellList)
		if !ok {
			return fmt.Errorf("celllist scorer is a %T", full)
		}
		var lists []*forcefield.NeighborList
		for i := 0; i < 5; i++ {
			t0 = time.Now()
			lists = p.SpotNeighborLists(cells)
			nlBuildUs = append(nlBuildUs, time.Since(t0).Seconds()*1e6)
		}

		// Poses the spot's own sampler produces: the ones the engine scores.
		sampler := conformation.NewSampler(p.Spots[0], p.LigandRadius())
		src := rng.New(r.cfg.Seed)
		flat := make([]vec.V3, batch*len(p.LigandPositions()))
		poses := make([][]vec.V3, batch)
		atoms := len(p.LigandPositions())
		for i := range poses {
			poses[i] = flat[i*atoms : (i+1)*atoms]
			sampler.Random(src).Apply(p.LigandPositions(), poses[i])
		}
		nl := lists[0]
		out := make([]float64, batch)

		t0 = time.Now()
		for i := 0; i < iters; i++ {
			probeSink += nl.Score(poses[i%batch])
		}
		nlSec += time.Since(t0).Seconds()
		nlEvals += iters

		t0 = time.Now()
		for i := 0; i < max(iters/batch, 1); i++ {
			nl.ScoreBatch(poses, out)
			batchEvals += batch
		}
		batchSec += time.Since(t0).Seconds()
		probeSink += out[0]

		t0 = time.Now()
		for i := 0; i < max(iters/4, 1); i++ {
			probeSink += cells.Score(poses[i%batch])
			fullEvals++
		}
		fullSec += time.Since(t0).Seconds()

		direct, err := p.NewScorer("direct")
		if err != nil {
			return err
		}
		t0 = time.Now()
		for i := 0; i < max(iters/20, 1); i++ {
			probeSink += direct.Score(poses[i%batch])
			directPairs += float64(p.PairsPerConformation())
		}
		directSec += time.Since(t0).Seconds()
	}
	r.metrics.set("forcefield.nl_score_evals_per_s", float64(nlEvals)/nlSec)
	r.metrics.set("forcefield.nl_batch_evals_per_s", float64(batchEvals)/batchSec)
	r.metrics.set("forcefield.full_score_evals_per_s", float64(fullEvals)/fullSec)
	r.metrics.set("forcefield.direct_mpairs_per_s", directPairs/directSec/1e6)
	r.metrics.set("forcefield.nl_build_us", median(nlBuildUs))
	r.metrics.set("core.problem_build_ms", median(problemMs))
	r.metrics.set("core.backend_build_ms", median(backendMs))
	return nil
}

// probeMetaheuristic runs the engine on a Modeled host backend, where the
// surrogate scorer makes scoring nearly free: what remains per evaluation is
// engine + metaheuristic host cost.
func (r *run) probeMetaheuristic(receptor, ligand *molecule.Molecule, spots int) error {
	span := r.rec.begin("metaheuristic", "probe", "", 0)
	defer r.rec.end(span)
	p, err := core.NewProblem(receptor, ligand, surface.Options{MaxSpots: spots}, forcefield.Options{})
	if err != nil {
		return err
	}
	for _, c := range []struct {
		mh     string
		scale  float64
		metric string
	}{
		{"M1", r.cfg.Sizes.M1Scale, "metaheuristic.host_us_per_eval_m1"},
		{"M4", r.cfg.Sizes.M4Scale, "metaheuristic.host_us_per_eval_m4"},
	} {
		alg, err := metaheuristic.NewPaper(c.mh, c.scale)
		if err != nil {
			return err
		}
		backend, err := core.NewHostBackend(p, core.HostConfig{Workers: 1})
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := core.RunCtx(context.Background(), p, alg, backend, r.cfg.Seed)
		if err != nil {
			return err
		}
		r.metrics.set(c.metric, time.Since(t0).Seconds()*1e6/float64(res.Evaluations))
	}
	return nil
}

// probeWAL measures one journal append of the service's mean record size
// under each fsync policy, on the filesystem the data dirs live on.
func (r *run) probeWAL() error {
	span := r.rec.begin("wal", "probe", "", 0)
	defer r.rec.end(span)
	payload := make([]byte, 200)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	for _, c := range []struct {
		policy wal.SyncPolicy
		metric string
		iters  int
	}{
		{wal.SyncAlways, "wal.append_us_always", max(r.cfg.Sizes.ProbeIters/10, 5)},
		{wal.SyncInterval, "wal.append_us_interval", r.cfg.Sizes.ProbeIters},
		{wal.SyncNever, "wal.append_us_never", r.cfg.Sizes.ProbeIters},
	} {
		dir, err := r.h.tempDir("walprobe-*")
		if err != nil {
			return err
		}
		j, _, err := wal.Open(dir, wal.Options{Policy: c.policy})
		if err != nil {
			return err
		}
		us := make([]float64, 0, c.iters)
		for i := 0; i < c.iters; i++ {
			t0 := time.Now()
			if err := j.Append(payload); err != nil {
				j.Close()
				return err
			}
			us = append(us, time.Since(t0).Seconds()*1e6)
		}
		if err := j.Close(); err != nil {
			return err
		}
		r.metrics.set(c.metric, r.timing(c.metric, us).Median)
	}
	return nil
}

// probeAdmission measures the admission layer's two hot operations. They are
// nanoseconds against milliseconds of job time; the number exists so that a
// simplification of this layer can show it moved nothing.
func (r *run) probeAdmission() {
	span := r.rec.begin("admission", "probe", "", 0)
	defer r.rec.end(span)
	n := r.cfg.Sizes.ProbeIters * 50

	q := admission.NewFairQueue[int](16)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if q.Push(i, admission.ClassNormal, "probe") == nil {
			v, _ := q.Pop()
			probeSink += float64(v)
		}
	}
	r.metrics.set("admission.queue_op_ns", float64(time.Since(t0).Nanoseconds())/float64(n))

	l := admission.NewLimiter(admission.LimiterConfig{Initial: 2, Target: time.Second})
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if l.Acquire() {
			l.Observe(time.Millisecond)
			l.Release()
		}
	}
	r.metrics.set("admission.limiter_op_ns", float64(time.Since(t0).Nanoseconds())/float64(n))
	l.Close()
}
