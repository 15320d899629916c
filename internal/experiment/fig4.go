package experiment

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/qnet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Fig4Config parameterizes the paper's §5.1 synthetic experiment: five
// three-tier network structures with λ=10 and all µ=5, 1000 tasks each,
// all arrivals observed for a sampled fraction of tasks, 10 repetitions.
type Fig4Config struct {
	// Structures lists replica counts per tier; the paper varies the
	// bottleneck across five structures with tiers of {1,2,4} servers.
	Structures [][3]int
	// Lambda and Mu are the arrival and per-queue service rates.
	Lambda, Mu float64
	// Tasks per simulated trace.
	Tasks int
	// Reps per (structure, fraction).
	Reps int
	// Fractions of tasks observed.
	Fractions []float64
	// EMIterations and PostSweeps size the inference (defaults 80/60).
	EMIterations, PostSweeps int
	// Seed drives all randomness; runs are deterministic given it.
	Seed uint64
	// Workers bounds parallel runs (default NumCPU).
	Workers int
}

// DefaultFig4Config returns the paper's configuration.
func DefaultFig4Config() Fig4Config {
	return Fig4Config{
		Structures: [][3]int{
			{1, 2, 4}, {4, 2, 1}, {2, 1, 4}, {4, 1, 2}, {2, 4, 1},
		},
		Lambda:       10,
		Mu:           5,
		Tasks:        1000,
		Reps:         10,
		Fractions:    []float64{0.05, 0.10, 0.25},
		EMIterations: 2000,
		PostSweeps:   100,
		Seed:         20080101,
	}
}

// Fig4Point is the absolute error of one queue's estimates in one run —
// one dot of the paper's Figure 4 scatter.
type Fig4Point struct {
	Structure  [3]int
	Rep        int
	Fraction   float64
	Queue      int
	QueueName  string
	ServiceErr float64 // |estimated − true| mean service time
	WaitErr    float64 // |estimated − true| mean waiting time
	ServiceEst float64
	ServiceTru float64
	WaitEst    float64
	WaitTru    float64
	// Baseline estimate of the mean service time: sample mean of the true
	// service times of the observed tasks' events (NaN when none
	// observed), used for the §5.1 estimator-variance comparison.
	BaselineServiceEst float64
}

// Fig4Result aggregates all runs.
type Fig4Result struct {
	Config Fig4Config
	Points []Fig4Point
}

// RunFig4 regenerates the Figure 4 data: for every structure, repetition
// and observation fraction, simulate, mask, run StEM + posterior, and score
// per-queue absolute errors against the ground-truth trace. progress may be
// nil.
func RunFig4(cfg Fig4Config, progress io.Writer) (*Fig4Result, error) {
	if len(cfg.Structures) == 0 || cfg.Tasks <= 0 || cfg.Reps <= 0 || len(cfg.Fractions) == 0 {
		return nil, fmt.Errorf("experiment: incomplete Fig4 config")
	}
	if cfg.EMIterations == 0 {
		cfg.EMIterations = 2000
	}
	if cfg.PostSweeps == 0 {
		cfg.PostSweeps = 100
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}

	type job struct {
		si, rep, fi int
	}
	var jobs []job
	for si := range cfg.Structures {
		for rep := 0; rep < cfg.Reps; rep++ {
			for fi := range cfg.Fractions {
				jobs = append(jobs, job{si, rep, fi})
			}
		}
	}

	results := make([][]Fig4Point, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	var mu sync.Mutex
	done := 0
	for ji, j := range jobs {
		wg.Add(1)
		go func(ji int, j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			pts, err := runFig4Job(cfg, j.si, j.rep, j.fi)
			results[ji] = pts
			errs[ji] = err
			if progress != nil {
				mu.Lock()
				done++
				fmt.Fprintf(progress, "\rfig4: %d/%d runs", done, len(jobs))
				mu.Unlock()
			}
		}(ji, j)
	}
	wg.Wait()
	if progress != nil {
		fmt.Fprintln(progress)
	}
	res := &Fig4Result{Config: cfg}
	for ji := range jobs {
		if errs[ji] != nil {
			return nil, fmt.Errorf("experiment: structure %v rep %d frac %v: %w",
				cfg.Structures[jobs[ji].si], jobs[ji].rep, cfg.Fractions[jobs[ji].fi], errs[ji])
		}
		res.Points = append(res.Points, results[ji]...)
	}
	return res, nil
}

// jobSeed mixes run coordinates into a unique RNG seed.
func jobSeed(base uint64, si, rep, fi int) uint64 {
	x := base
	for _, v := range []uint64{uint64(si) + 1, uint64(rep) + 1, uint64(fi) + 1} {
		x ^= v * 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x ^= x >> 27
	}
	return x
}

func runFig4Job(cfg Fig4Config, si, rep, fi int) ([]Fig4Point, error) {
	structure := cfg.Structures[si]
	frac := cfg.Fractions[fi]
	r := xrand.New(jobSeed(cfg.Seed, si, rep, fi))
	net, err := qnet.PaperSynthetic(cfg.Lambda, cfg.Mu, structure)
	if err != nil {
		return nil, err
	}
	truth, err := sim.Run(net, r, sim.Options{Tasks: cfg.Tasks})
	if err != nil {
		return nil, err
	}
	obs := truth.ObserveTasks(r, frac)
	working := truth.Clone()
	emRes, sum, err := core.Estimate(working, r,
		core.EMOptions{Iterations: cfg.EMIterations},
		core.PosteriorOptions{Sweeps: cfg.PostSweeps})
	if err != nil {
		return nil, err
	}
	baseline := core.BaselineObservedServiceMeans(truth, obs)
	return scoreRun(net, truth, emRes, sum, baseline, structure, rep, frac), nil
}

// scoreRun converts one run's estimates into per-queue error points.
func scoreRun(net *qnet.Network, truth *trace.EventSet, emRes *core.EMResult,
	sum *core.PosteriorSummary, baseline []float64, structure [3]int, rep int, frac float64) []Fig4Point {
	trueMS := truth.MeanServiceByQueue()
	trueMW := truth.MeanWaitByQueue()
	estMS := emRes.Params.MeanServiceTimes()
	names := net.QueueNames()
	var pts []Fig4Point
	for q := 1; q < truth.NumQueues; q++ {
		pts = append(pts, Fig4Point{
			Structure:          structure,
			Rep:                rep,
			Fraction:           frac,
			Queue:              q,
			QueueName:          names[q],
			ServiceErr:         abs(estMS[q] - trueMS[q]),
			WaitErr:            abs(sum.MeanWait[q] - trueMW[q]),
			ServiceEst:         estMS[q],
			ServiceTru:         trueMS[q],
			WaitEst:            sum.MeanWait[q],
			WaitTru:            trueMW[q],
			BaselineServiceEst: baseline[q],
		})
	}
	return pts
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// ErrorSummary returns the distribution of absolute errors at each
// observation fraction, for the service (svc=true) or waiting time.
func (r *Fig4Result) ErrorSummary(svc bool) *Table {
	t := &Table{
		Title:   "Figure 4 (" + map[bool]string{true: "left: service-time", false: "right: waiting-time"}[svc] + " absolute error vs. % arrivals observed)",
		Headers: []string{"observed", "n", "q1", "median", "q3", "max", "mean"},
	}
	for _, frac := range r.Config.Fractions {
		var errs []float64
		for _, p := range r.Points {
			if p.Fraction != frac {
				continue
			}
			if svc {
				errs = append(errs, p.ServiceErr)
			} else {
				errs = append(errs, p.WaitErr)
			}
		}
		s := stats.Summarize(errs)
		t.AddRow(FmtPct(frac), fmt.Sprintf("%d", s.N), FmtF(s.Q1), FmtF(s.Med), FmtF(s.Q3), FmtF(s.Max), FmtF(s.Mean))
	}
	return t
}

// MedianErrors returns the in-text §5.1 numbers: median absolute service
// and waiting errors at the given fraction.
func (r *Fig4Result) MedianErrors(frac float64) (svc, wait float64) {
	var se, we []float64
	for _, p := range r.Points {
		if p.Fraction == frac {
			se = append(se, p.ServiceErr)
			we = append(we, p.WaitErr)
		}
	}
	return stats.Median(se), stats.Median(we)
}

// VarianceComparison reproduces the paper's in-text estimator-variance
// result: for every (structure, queue, fraction) cell the variance of the
// estimate across repetitions is computed for both StEM and the
// observed-service baseline; cells are then averaged. The paper reports
// StEM variance 9.09e-4 vs baseline 1.37e-3 (≈ 2/3 ratio) with nearly
// identical mean error.
func (r *Fig4Result) VarianceComparison() (stemVar, baseVar float64, table *Table) {
	type key struct {
		si    int
		queue int
		frac  float64
	}
	structIndex := map[[3]int]int{}
	for i, s := range r.Config.Structures {
		structIndex[s] = i
	}
	stem := map[key][]float64{}
	base := map[key][]float64{}
	for _, p := range r.Points {
		k := key{structIndex[p.Structure], p.Queue, p.Fraction}
		stem[k] = append(stem[k], p.ServiceEst)
		base[k] = append(base[k], p.BaselineServiceEst)
	}
	perFrac := map[float64]*stats.Online{}
	perFracBase := map[float64]*stats.Online{}
	var sAll, bAll stats.Online
	for k, est := range stem {
		if len(est) < 2 {
			continue
		}
		sv := stats.Variance(est)
		bv := stats.Variance(filterNaN(base[k]))
		if isNaN(bv) || isNaN(sv) {
			continue
		}
		sAll.Add(sv)
		bAll.Add(bv)
		if perFrac[k.frac] == nil {
			perFrac[k.frac] = &stats.Online{}
			perFracBase[k.frac] = &stats.Online{}
		}
		perFrac[k.frac].Add(sv)
		perFracBase[k.frac].Add(bv)
	}
	table = &Table{
		Title:   "§5.1 estimator variance: StEM vs. observed-service baseline (service-time estimates)",
		Headers: []string{"observed", "StEM variance", "baseline variance", "ratio"},
	}
	for _, frac := range r.Config.Fractions {
		if perFrac[frac] == nil {
			continue
		}
		s, b := perFrac[frac].Mean(), perFracBase[frac].Mean()
		table.AddRow(FmtPct(frac), FmtF(s), FmtF(b), FmtF(s/b))
	}
	table.AddRow("pooled", FmtF(sAll.Mean()), FmtF(bAll.Mean()), FmtF(sAll.Mean()/bAll.Mean()))
	return sAll.Mean(), bAll.Mean(), table
}

func filterNaN(xs []float64) []float64 {
	out := xs[:0:0]
	for _, x := range xs {
		if !isNaN(x) {
			out = append(out, x)
		}
	}
	return out
}

func isNaN(v float64) bool { return v != v }
