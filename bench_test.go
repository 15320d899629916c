package queueinf

// The benchmark harness: one testing.B benchmark per paper artifact
// (Figure 4 left/right, the §5.1 variance table, Figure 5) at reduced but
// structurally identical sizes, plus micro-benchmarks of the pipeline
// stages and the ablation benches called out in DESIGN.md §6. The full-size
// regeneration of each figure lives in cmd/qexperiments.

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// benchFig4Config is the Figure 4 setup at bench scale.
func benchFig4Config() experiment.Fig4Config {
	cfg := experiment.DefaultFig4Config()
	cfg.Structures = [][3]int{{1, 2, 4}}
	cfg.Tasks = 300
	cfg.Reps = 2
	cfg.Fractions = []float64{0.05, 0.25}
	cfg.EMIterations = 200
	cfg.PostSweeps = 40
	cfg.Workers = 1
	return cfg
}

// BenchmarkFig4ServiceError regenerates the Figure 4 (left) data points —
// service-time absolute error versus observation fraction.
func BenchmarkFig4ServiceError(b *testing.B) {
	cfg := benchFig4Config()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig4(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if svc, _ := res.MedianErrors(0.25); svc > 0.15 {
			b.Fatalf("median service error %v implausibly large", svc)
		}
	}
}

// BenchmarkFig4WaitingError regenerates the Figure 4 (right) data points —
// waiting-time absolute error versus observation fraction.
func BenchmarkFig4WaitingError(b *testing.B) {
	cfg := benchFig4Config()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig4(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if _, wait := res.MedianErrors(0.25); wait < 0 {
			b.Fatal("negative error")
		}
	}
}

// BenchmarkVarianceTable regenerates the §5.1 in-text estimator-variance
// comparison (StEM vs. observed-service baseline).
func BenchmarkVarianceTable(b *testing.B) {
	cfg := benchFig4Config()
	cfg.Reps = 4
	cfg.Fractions = []float64{0.1}
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig4(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		sv, bv, _ := res.VarianceComparison()
		if !(sv > 0 && bv > 0) {
			b.Fatal("degenerate variances")
		}
	}
}

// BenchmarkFig5Webapp regenerates the Figure 5 sweep (both panels) on a
// scaled-down web-application trace.
func BenchmarkFig5Webapp(b *testing.B) {
	cfg := experiment.DefaultFig5Config()
	cfg.App.Requests = 600
	cfg.App.Duration = 750
	cfg.Fractions = []float64{0.1, 0.5}
	cfg.EMIterations = 150
	cfg.PostSweeps = 20
	cfg.Workers = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunFig5(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Pipeline stage micro-benchmarks

// benchTrace builds the standard 1000-task three-tier trace masked at 10%.
func benchTrace(b *testing.B) (*EventSet, *Network) {
	b.Helper()
	rng := xrand.New(1)
	net, err := ThreeTier(10, 5, [3]int{1, 2, 4})
	if err != nil {
		b.Fatal(err)
	}
	truth, err := sim.Run(net, rng, sim.Options{Tasks: 1000})
	if err != nil {
		b.Fatal(err)
	}
	truth.ObserveTasks(rng, 0.10)
	return truth, net
}

// BenchmarkSimulate measures ground-truth generation (the substrate the
// paper's testbed provides).
func BenchmarkSimulate(b *testing.B) {
	rng := xrand.New(1)
	net, err := ThreeTier(10, 5, [3]int{1, 2, 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(net, rng, sim.Options{Tasks: 1000}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTraceLarge builds the sweep workload: an 11-queue three-tier
// network (tiers {2,4,4}), 2000 tasks (22000 events), masked at 10%.
func benchTraceLarge(b *testing.B) (*EventSet, *Network) {
	b.Helper()
	rng := xrand.New(1)
	net, err := ThreeTier(10, 5, [3]int{2, 4, 4})
	if err != nil {
		b.Fatal(err)
	}
	truth, err := sim.Run(net, rng, sim.Options{Tasks: 2000})
	if err != nil {
		b.Fatal(err)
	}
	truth.ObserveTasks(rng, 0.10)
	return truth, net
}

// BenchmarkGibbsSweep measures one systematic Gibbs sweep over a
// 22000-event trace at 10% observation — the unit the paper's running-time
// discussion is about ("the sampler scales primarily in the number of
// unobserved arrival events").
func BenchmarkGibbsSweep(b *testing.B) {
	truth, net := benchTraceLarge(b)
	params, err := core.NewParams(net.ServiceRates())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("seq", func(b *testing.B) {
		working := truth.Clone()
		if err := (core.OrderInitializer{}).Initialize(working, params); err != nil {
			b.Fatal(err)
		}
		g, err := core.NewGibbs(working, params, xrand.New(2))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Sweep()
		}
	})
}

// BenchmarkPosterior measures the full fixed-parameter posterior pass (30
// sweeps, each kept sweep's per-queue sums taken in one pass) the way a
// steady-state caller runs it: working copies drawn from a ClonePool,
// results written into a reused summary via PosteriorInto, and the
// sampler's move lists reused through a GibbsScratch — so bytes/op and
// allocs/op reflect the sampler itself rather than per-call buffer churn.
func BenchmarkPosterior(b *testing.B) {
	truth, net := benchTraceLarge(b)
	params, err := core.NewParams(net.ServiceRates())
	if err != nil {
		b.Fatal(err)
	}
	base := truth.Clone()
	if err := (core.OrderInitializer{}).Initialize(base, params); err != nil {
		b.Fatal(err)
	}
	b.Run("seq", func(b *testing.B) {
		var pool trace.ClonePool
		var sum core.PosteriorSummary
		var sc core.GibbsScratch
		run := func() {
			working := pool.Get(base)
			if err := core.PosteriorInto(&sum, working, params, xrand.New(3), core.PosteriorOptions{
				Sweeps: 30, Scratch: &sc,
			}); err != nil {
				b.Fatal(err)
			}
			pool.Put(working)
		}
		run() // steady state: grow the scratch, summary, and clone pool
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	})
}

// BenchmarkStEMIteration measures one StEM iteration (E-sweep + M-step).
func BenchmarkStEMIteration(b *testing.B) {
	truth, _ := benchTrace(b)
	working := truth.Clone()
	b.ResetTimer()
	b.ReportMetric(0, "allocs/op") // overwritten by -benchmem
	res, err := core.StEM(working, xrand.New(3), core.EMOptions{Iterations: b.N + 2, BurnIn: 1})
	if err != nil {
		b.Fatal(err)
	}
	_ = res
}

// ---------------------------------------------------------------------------
// Ablation benches (DESIGN.md §6)

// BenchmarkInitializerOrder measures the default feasibility construction.
func BenchmarkInitializerOrder(b *testing.B) {
	truth, net := benchTrace(b)
	params, err := core.NewParams(net.ServiceRates())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		working := truth.Clone()
		if err := (core.OrderInitializer{}).Initialize(working, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInitializerLP measures the paper's LP initialization on a small
// trace (its dense simplex cost is why OrderInitializer is the default).
func BenchmarkInitializerLP(b *testing.B) {
	rng := xrand.New(4)
	net, err := ThreeTier(8, 4, [3]int{1, 1, 1})
	if err != nil {
		b.Fatal(err)
	}
	truth, err := sim.Run(net, rng, sim.Options{Tasks: 40})
	if err != nil {
		b.Fatal(err)
	}
	truth.ObserveTasks(rng, 0.3)
	params, err := core.NewParams(net.ServiceRates())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		working := truth.Clone()
		if err := (core.LPInitializer{}).Initialize(working, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCEM5 measures Monte Carlo EM with 5 sweeps per E-step, for
// comparison against the same number of total sweeps of plain StEM
// (BenchmarkStEMIteration ×5).
func BenchmarkMCEM5(b *testing.B) {
	truth, _ := benchTrace(b)
	working := truth.Clone()
	b.ResetTimer()
	if _, err := core.MCEM(working, xrand.New(5), 5, core.EMOptions{Iterations: b.N + 2, BurnIn: 1}); err != nil {
		b.Fatal(err)
	}
}
