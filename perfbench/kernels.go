package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"resilientloc/internal/core"
	"resilientloc/internal/deploy"
	"resilientloc/internal/geom"
	"resilientloc/internal/measure"
	"resilientloc/internal/obs"
	"resilientloc/internal/scratch"
	"resilientloc/internal/signal"
)

// kernelSeed fixes the instances the kernel rung solves, so their work
// counts repeat exactly across runs and seeds.
const kernelSeed = 61

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// lssInstance is one LSS problem: a measurement set and a solver budget.
type lssInstance struct {
	name string
	set  *measure.Set
	cfg  core.LSSConfig
}

// lssInstances builds the paper-grid and town instances: the two
// deployments the paper's LSS figures solve, at a reduced restart budget.
func lssInstances() ([]lssInstance, error) {
	rng := rand.New(rand.NewSource(kernelSeed))
	grid := deploy.PaperGrid()
	gridSet, err := measure.Generate(grid, 22, measure.GaussianNoise, rng)
	if err != nil {
		return nil, err
	}
	gridCfg := core.DefaultLSSConfig(9)
	gridCfg.Restarts = 4
	town := deploy.Town(rng)
	townSet, err := measure.Generate(town, 22, measure.GaussianNoise, rng)
	if err != nil {
		return nil, err
	}
	townCfg := core.DefaultLSSConfig(9)
	townCfg.Restarts = 4
	return []lssInstance{{"paper-grid", gridSet, gridCfg}, {"town", townSet, townCfg}}, nil
}

// kernelRung times the hot kernels directly: LSS descent, multilateration
// and tone detection, each on fixed instances with a warmed scratch arena
// (the engine's steady state).
func kernelRung(ctx context.Context, l *layers, rounds int) error {
	ctx, span := obs.Start(ctx, "bench.rung.kernels")
	defer span.End()

	insts, err := lssInstances()
	if err != nil {
		return err
	}
	ws := scratch.New()
	solveAll := func() (int, error) {
		iters := 0
		for _, in := range insts {
			res, err := core.SolveLSSIn(ws, in.set, in.cfg, rand.New(rand.NewSource(kernelSeed+1)))
			if err != nil {
				return 0, fmt.Errorf("LSS %s: %w", in.name, err)
			}
			iters += res.Iterations
			ws.Release()
		}
		return iters, nil
	}
	if _, err := solveAll(); err != nil { // warm the arena
		return err
	}
	for r := 0; r < rounds; r++ {
		_, s := obs.Start(ctx, "bench.core.lss")
		m0 := mallocs()
		t := time.Now()
		iters, err := solveAll()
		d := time.Since(t)
		allocs := mallocs() - m0
		s.End()
		if err != nil {
			return err
		}
		l.sample("core.lss.solve_ms", d.Seconds()*1e3)
		l.sample("core.lss.iters", float64(iters))
		l.sample("core.lss.ns_per_iter", float64(d.Nanoseconds())/float64(iters))
		l.sample("core.lss.allocs", float64(allocs))
	}

	townDep := deploy.Town(rand.New(rand.NewSource(kernelSeed + 2)))
	townSet, err := measure.Generate(townDep, 22, measure.GaussianNoise, rand.New(rand.NewSource(kernelSeed+3)))
	if err != nil {
		return err
	}
	anchors := make(map[int]geom.Point, len(townDep.Anchors))
	for _, a := range townDep.Anchors {
		anchors[a] = townDep.Positions[a]
	}
	// Spans open outside each timed window, so the allocation counts are the
	// kernel's own.
	const solves = 10
	multilat := func() error {
		for i := 0; i < solves; i++ {
			if _, err := core.SolveMultilaterationIn(ws, townSet, anchors, core.DefaultMultilatConfig()); err != nil {
				return fmt.Errorf("multilateration: %w", err)
			}
			ws.Release()
		}
		return nil
	}
	if err := multilat(); err != nil {
		return err
	}
	for r := 0; r < 4*rounds; r++ {
		_, s := obs.Start(ctx, "bench.core.multilat")
		m0 := mallocs()
		t := time.Now()
		err := multilat()
		d := time.Since(t)
		allocs := mallocs() - m0
		s.End()
		if err != nil {
			return err
		}
		l.sample("core.multilat.solve_us", d.Seconds()*1e6/solves)
		l.sample("core.multilat.allocs", float64(allocs)/solves)
	}

	cfg := signal.DefaultSynth()
	cfg.NoiseStd = 700
	tmpl, err := cfg.Template()
	if err != nil {
		return err
	}
	wave := make([]float64, cfg.TotalLen())
	if err := cfg.GenerateInto(wave, tmpl, rand.New(rand.NewSource(kernelSeed+4))); err != nil {
		return err
	}
	det := signal.DefaultDFTDetector()
	const detections = 500
	detect := func() {
		for i := 0; i < detections; i++ {
			det.DetectIn(ws, wave)
			ws.Release()
		}
	}
	detect()
	for r := 0; r < 4*rounds; r++ {
		_, s := obs.Start(ctx, "bench.signal.detect")
		m0 := mallocs()
		t := time.Now()
		detect()
		d := time.Since(t)
		allocs := mallocs() - m0
		s.End()
		l.sample("signal.detect_us", d.Seconds()*1e6/detections)
		l.sample("signal.detect_allocs", float64(allocs)/detections)
	}
	return nil
}
