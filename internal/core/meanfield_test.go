package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/qnet"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// solveFixPoint runs a mean-field solve on a fresh clone and returns the
// mutated event set, the rates, and the stats.
func solveFixPoint(t *testing.T, base *trace.EventSet, opts MeanFieldOptions) (*trace.EventSet, Params, MeanFieldStats) {
	t.Helper()
	es := base.Clone()
	var params Params
	stats, err := MeanFieldInto(nil, &params, es, opts)
	if err != nil {
		t.Fatal(err)
	}
	return es, params, stats
}

// TestMeanFieldDeterministic pins the fast path's core contract: the fix
// point is a pure function of the observed data — bit-identical across
// repeated solves, across GOMAXPROCS settings, with or without a donated
// scratch, and regardless of the latent values the event set happens to
// hold on entry (scrambled vs. a prior Gibbs state).
func TestMeanFieldDeterministic(t *testing.T) {
	net := must(qnet.PaperSynthetic(10, 5, [3]int{1, 2, 4}))
	base, _, _ := simulateObserved(t, net, 300, 0.2, 99)

	ref := base.Clone()
	scrambleLatent(ref)
	refES, refParams, stats := solveFixPoint(t, ref, MeanFieldOptions{})
	if stats.Iterations == 0 {
		t.Fatal("solve ran no iterations")
	}
	if !stats.Converged {
		t.Logf("fix point not converged in default iters (maxDelta=%v); determinism must still hold", stats.MaxDelta)
	}

	check := func(name string, es *trace.EventSet, params Params) {
		t.Helper()
		for q, r := range refParams.Rates {
			if params.Rates[q] != r {
				t.Fatalf("%s: rate[%d] = %v, want bit-identical %v", name, q, params.Rates[q], r)
			}
		}
		for i := range refES.Events {
			if es.Arr[i] != refES.Arr[i] || es.Dep[i] != refES.Dep[i] {
				t.Fatalf("%s: event %d times (%v,%v) differ from reference (%v,%v)",
					name, i, es.Arr[i], es.Dep[i], refES.Arr[i], refES.Dep[i])
			}
		}
	}

	// Repeated solve from a scrambled clone.
	again := base.Clone()
	scrambleLatent(again)
	es2, p2, _ := solveFixPoint(t, again, MeanFieldOptions{})
	check("rerun", es2, p2)

	// Latent state on entry must not matter: start from the simulator's
	// ground truth (a feasible non-scrambled state).
	es3, p3, _ := solveFixPoint(t, base, MeanFieldOptions{})
	check("unscrambled entry", es3, p3)

	// Donated scratch, reused twice.
	var sc MeanFieldScratch
	for run := 0; run < 2; run++ {
		scratched := base.Clone()
		scrambleLatent(scratched)
		es4, p4, _ := solveFixPoint(t, scratched, MeanFieldOptions{Scratch: &sc})
		check("scratch", es4, p4)
	}

	// GOMAXPROCS must be invisible to a deterministic solver.
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(t, procs)
		gm := base.Clone()
		scrambleLatent(gm)
		es5, p5, _ := solveFixPoint(t, gm, MeanFieldOptions{})
		check("GOMAXPROCS", es5, p5)
	}
}

// TestMeanFieldFeasibleAndPreservesObservations mirrors the initializer
// contract tests: the fix point validates at every observation fraction and
// never moves an observed time.
func TestMeanFieldFeasibleAndPreservesObservations(t *testing.T) {
	net := must(qnet.PaperSynthetic(10, 5, [3]int{1, 2, 4}))
	for _, frac := range []float64{0, 0.05, 0.25, 0.75, 1} {
		working, truth, _ := simulateObserved(t, net, 200, frac, uint64(100+int(frac*100)))
		scrambleLatent(working)
		var sum PosteriorSummary
		var params Params
		if _, err := MeanFieldInto(&sum, &params, working, MeanFieldOptions{}); err != nil {
			t.Fatalf("frac %v: %v", frac, err)
		}
		if err := working.Validate(1e-6); err != nil {
			t.Fatalf("frac %v: fix point invalid: %v", frac, err)
		}
		for i := range truth.Events {
			te := &truth.Events[i]
			if te.ObsArrival && truth.Arr[i] != working.Arr[i] {
				t.Fatalf("frac %v: event %d observed arrival changed", frac, i)
			}
			if te.Final() && te.ObsDepart && truth.Dep[i] != working.Dep[i] {
				t.Fatalf("frac %v: event %d observed departure changed", frac, i)
			}
		}
		for q := 0; q < working.NumQueues; q++ {
			if len(working.ByQueue[q]) == 0 {
				continue
			}
			if math.IsNaN(sum.MeanService[q]) || math.IsNaN(sum.MeanWait[q]) {
				t.Fatalf("frac %v: queue %d summary is NaN for a non-empty queue", frac, q)
			}
			if sum.MeanService[q] < 0 || sum.MeanWait[q] < 0 {
				t.Fatalf("frac %v: queue %d negative summary (svc=%v wait=%v)",
					frac, q, sum.MeanService[q], sum.MeanWait[q])
			}
		}
		if sum.Sweeps != 0 {
			t.Fatalf("mean-field summary claims %d sweeps", sum.Sweeps)
		}
	}
}

// TestMeanFieldRecoversRates checks the estimate is actually an estimate:
// on a moderately observed synthetic network the fix-point service rates
// land within a factor-two band of the generating rates (the mean-field
// bias is real but bounded; the Gibbs backend refines it).
func TestMeanFieldRecoversRates(t *testing.T) {
	net := must(qnet.PaperSynthetic(10, 5, [3]int{1, 2, 4}))
	working, _, _ := simulateObserved(t, net, 400, 0.4, 7)
	scrambleLatent(working)
	_, params, _ := solveFixPoint(t, working, MeanFieldOptions{})
	truthRates := net.ServiceRates()
	for q := 1; q < len(truthRates); q++ {
		ratio := params.Rates[q] / truthRates[q]
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("queue %d: mean-field rate %v vs truth %v (ratio %v)",
				q, params.Rates[q], truthRates[q], ratio)
		}
	}
}

// TestMeanFieldAllocs pins the scratch contract: a steady-state solve with
// a donated MeanFieldScratch and caller-owned outputs performs zero heap
// allocations, on a small trace and on the ~1k/10k/100k-event traces of
// BenchmarkMeanFieldSolve.
func TestMeanFieldAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	check := func(t *testing.T, base *trace.EventSet) {
		run := meanFieldSolver(t, base)
		run() // grow scratch, pool, and outputs to steady state
		if allocs := testing.AllocsPerRun(2, run); allocs != 0 {
			t.Fatalf("mean-field solve allocates %v per run, want 0", allocs)
		}
	}
	t.Run("tasks300", func(t *testing.T) {
		net := must(qnet.PaperSynthetic(10, 5, [3]int{1, 2, 4}))
		base, _, _ := simulateObserved(t, net, 300, 0.2, 99)
		check(t, base)
	})
	for _, bc := range benchEventGrid() {
		t.Run(bc.name, func(t *testing.T) { check(t, benchTraceSized(t, bc.tasks)) })
	}
}

// TestMeanFieldSpeedVsColdPosterior is the time-to-first-estimate
// contract, timed in one process so host speed cancels in the ratio: at
// ~10k events the mean-field solve must be at least 50x faster than the
// offline reference, a cold StEM (300 iterations) plus a 40-sweep
// posterior pass on the same trace.
func TestMeanFieldSpeedVsColdPosterior(t *testing.T) {
	if raceEnabled {
		t.Skip("timings are distorted under -race")
	}
	const minSpeedup = 50
	truth := benchTraceSized(t, 909) // ev10k
	solve := meanFieldSolver(t, truth)
	solve() // steady state: grow the scratch, summary, and clone pool
	// The cold run is long enough to average over the host's speed swings;
	// a solve is not, so the fastest solve is taken from both sides of it.
	before := minTimes(5, solve)[0]
	var pool trace.ClonePool
	var sum PosteriorSummary
	cold := minTimes(1, func() { coldPosterior(t, &pool, &sum, truth) })[0]
	mf := min(before, minTimes(5, solve)[0])
	speedup := float64(cold) / float64(mf)
	t.Logf("ev10k: mean-field %v, cold StEM+posterior %v, %.1fx", mf, cold, speedup)
	if speedup < minSpeedup {
		t.Fatalf("mean-field solve only %.1fx faster than the cold posterior, want >= %dx", speedup, minSpeedup)
	}
}

// TestMeanFieldInitializerWarmStart is the warm-start regression from the
// issue: on the tandem scenario, StEM started from the mean-field fix point
// must reach its converged rate band in no more iterations than StEM
// started from the paper's LP initializer.
func TestMeanFieldInitializerWarmStart(t *testing.T) {
	net := must(qnet.Tandem(dist.NewExponential(2),
		dist.NewExponential(6), dist.NewExponential(4)))
	working, _, _ := simulateObserved(t, net, 120, 0.3, 11)
	params := must(NewParams(net.ServiceRates()))

	itersToBand := func(ini Initializer) int {
		t.Helper()
		es := working.Clone()
		scrambleLatent(es)
		res, err := StEM(es, xrand.New(17), EMOptions{
			Iterations:    80,
			Init:          ini,
			InitialParams: &params,
			KeepHistory:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		final := res.Params.Rates
		for iter, rates := range res.History {
			within := true
			for q, r := range rates {
				if math.Abs(r-final[q])/final[q] > 0.25 {
					within = false
					break
				}
			}
			if within {
				return iter
			}
		}
		return len(res.History)
	}

	lp := itersToBand(LPInitializer{MaxEvents: 2000})
	mf := itersToBand(MeanFieldInitializer{})
	t.Logf("iterations to converged band: LP=%d mean-field=%d", lp, mf)
	if mf > lp {
		t.Fatalf("mean-field warm start took %d iterations to converge, LP took %d", mf, lp)
	}
}

func TestMeanFieldInitializerRejectsWrongRateCount(t *testing.T) {
	net := must(qnet.SingleMM1(2, 5))
	working, _, _ := simulateObserved(t, net, 10, 0.5, 61)
	bad := Params{Rates: []float64{1}}
	if err := (MeanFieldInitializer{}).Initialize(working, bad); err == nil {
		t.Error("mean-field initializer accepted wrong rate count")
	}
	var wrong Params
	wrong.Rates = []float64{1}
	if _, err := MeanFieldInto(nil, nil, working, MeanFieldOptions{InitialParams: &wrong}); err == nil {
		t.Error("MeanFieldInto accepted wrong initial rate count")
	}
}

// TestCondSpecMeanMatchesIntegration checks the analytic conditional mean
// against trapezoid integration of the same unnormalized density for
// specs spanning the shapes the samplers build (uniform, single slope,
// one and two breakpoints, steep and near-flat slopes).
func TestCondSpecMeanMatchesIntegration(t *testing.T) {
	numericMean := func(c *condSpec, hi float64) float64 {
		const n = 200000
		h := (hi - c.lo) / n
		var z, m float64
		for i := 0; i <= n; i++ {
			x := c.lo + float64(i)*h
			w := 1.0
			if i == 0 || i == n {
				w = 0.5
			}
			p := math.Exp(c.logPDF(x))
			z += w * p
			m += w * p * x
		}
		return m / z
	}
	cases := []struct {
		name  string
		build func(c *condSpec)
		hi    float64 // integration cutoff for infinite support
	}{
		{"uniform", func(c *condSpec) { c.reset(1, 3, 0) }, 3},
		{"down-slope", func(c *condSpec) { c.reset(0, 2, -1.5) }, 2},
		{"up-slope", func(c *condSpec) { c.reset(0, 2, 2.5) }, 2},
		{"near-flat", func(c *condSpec) { c.reset(0, 10, 1e-9) }, 10},
		{"steep", func(c *condSpec) { c.reset(0, 1, -40) }, 1},
		{"one-break", func(c *condSpec) {
			c.reset(0, 4, -2)
			c.addTerm(1.5, 3)
		}, 4},
		{"two-breaks", func(c *condSpec) {
			c.reset(0, 5, -1)
			c.addTerm(1, 2)
			c.addTerm(3, -4)
		}, 5},
		{"infinite-tail", func(c *condSpec) { c.reset(2, math.Inf(1), -3) }, 12},
		{"infinite-with-break", func(c *condSpec) {
			c.reset(0, math.Inf(1), -2)
			c.addTerm(1, 0.5)
		}, 15},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var c condSpec
			tc.build(&c)
			got := c.mean()
			trunc := c
			trunc.hi = tc.hi
			want := numericMean(&trunc, tc.hi)
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("mean = %v, numeric integration = %v", got, want)
			}
		})
	}
}

// TestTruncExpMeanLimits exercises the closed form's numerically delicate
// regimes directly.
func TestTruncExpMeanLimits(t *testing.T) {
	cases := []struct {
		m, w, want, tol float64
	}{
		{0, 2, 1, 1e-12},                  // uniform: w/2
		{1e-9, 2, 1, 1e-6},                // near-flat: still ≈ w/2
		{-1, 1, 1/(1-math.E) + 1, 1e-12},  // moderate closed form: 1 − 2/e over 1 − 1/e
		{-50, 100, 0.02, 1e-6},            // mw → −∞: 1/|m|
		{50, 100, 100 - 0.02, 1e-6},       // mw → +∞: w − 1/m
		{-3, math.Inf(1), 1.0 / 3, 1e-12}, // infinite support
	}
	for _, tc := range cases {
		if got := truncExpMean(tc.m, tc.w); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("truncExpMean(%v, %v) = %v, want %v", tc.m, tc.w, got, tc.want)
		}
	}
	// Series and closed form agree where both are accurate (just past the
	// switch, the closed form's cancellation error is still ≈ ulp/mw ≈ 1e-12).
	for _, mw := range []float64{2e-4, -2e-4} {
		series := mw * 0.5 * (1 + mw/6) // truncExpMean's small-|mw| branch at w=|mw|/|m| with m=±1
		closed := truncExpMean(1, mw)
		if mw < 0 {
			series = -mw * 0.5 * (1 + mw/6)
			closed = truncExpMean(-1, -mw)
		}
		if math.Abs(series-closed) > 1e-9 {
			t.Errorf("mw=%v: series %v vs closed form %v", mw, series, closed)
		}
	}
}

// slideTasksOf converts every task of a simulated, observation-masked trace
// into the SlideTask a daemon's store hands the sliding window: the entry
// is observed exactly when the first real event's arrival is.
func slideTasksOf(es *trace.EventSet) []SlideTask {
	out := make([]SlideTask, es.NumTasks)
	for k, ids := range es.ByTask {
		t := SlideTask{Entry: es.Dep[ids[0]], EntryObs: es.Events[ids[1]].ObsArrival}
		for _, id := range ids[1:] {
			e := &es.Events[id]
			t.Events = append(t.Events, SlideEvent{
				Queue: e.Queue, State: e.State, Arr: es.Arr[id], Dep: es.Dep[id],
				ObsArr: e.ObsArrival, ObsDep: e.ObsDepart,
			})
		}
		out[k] = t
	}
	return out
}

// builderWindow assembles tasks the way the daemon did before the window
// copy existed: sort stably by entry, rebuild with trace.Builder, then
// restore the observation mask (the q0 event's departure follows the entry
// flag; its arrival is always observed).
func builderWindow(t *testing.T, nq int, tasks []SlideTask) *trace.EventSet {
	t.Helper()
	tasks = append([]SlideTask(nil), tasks...)
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].Entry < tasks[j].Entry })
	b := trace.NewBuilder(nq)
	var obsArr, obsDep []bool
	for _, task := range tasks {
		k := b.StartTask(task.Entry)
		obsArr, obsDep = append(obsArr, true), append(obsDep, task.EntryObs)
		for _, ev := range task.Events {
			if _, err := b.AddEvent(k, ev.State, ev.Queue, ev.Arr, ev.Dep); err != nil {
				t.Fatal(err)
			}
			obsArr, obsDep = append(obsArr, ev.ObsArr), append(obsDep, ev.ObsDep)
		}
	}
	es, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := range es.Events {
		es.Events[i].ObsArrival = obsArr[i]
		es.Events[i].ObsDepart = obsDep[i]
	}
	return es
}

// TestMeanFieldWindowCopyMatchesBuilder pins SlidingWindow.EventSet, the
// daemon's mean-field input, against the Builder rebuild of the same live
// tasks: windows filled by in-order appends and by appends in seal (exit)
// order — out of entry order — with evictions must copy to the identical
// EventSet before any sweep, and the mean-field fix point over the two must
// be bit-identical.
func TestMeanFieldWindowCopyMatchesBuilder(t *testing.T) {
	nets := map[string]*qnet.Network{
		"three-tier": must(qnet.PaperSynthetic(10, 5, [3]int{1, 2, 4})),
		"mm1":        must(qnet.SingleMM1(4, 10)),
	}
	for name, net := range nets {
		for _, frac := range []float64{0.1, 0.5} {
			truth, _, _ := simulateObserved(t, net, 400, frac, uint64(900+int(frac*100)))
			inEntry := slideTasksOf(truth)
			order := make([]int, len(inEntry))
			for k := range order {
				order[k] = k
			}
			sort.SliceStable(order, func(i, j int) bool { return truth.TaskExit(order[i]) < truth.TaskExit(order[j]) })
			inSeal := make([]SlideTask, len(order))
			for i, k := range order {
				inSeal[i] = inEntry[k]
			}
			for sealOrder, tasks := range map[bool][]SlideTask{false: inEntry, true: inSeal} {
				for _, window := range []int{150, 400} {
					w := NewSlidingWindow(truth.NumQueues)
					for _, task := range tasks {
						if err := w.Append(task); err != nil {
							t.Fatal(err)
						}
						for w.LiveTasks() > window {
							w.EvictOldest()
						}
					}
					live := tasks[len(tasks)-w.LiveTasks():]
					checkWindowCopy(t, fmt.Sprintf("%s frac=%v seal=%v window=%d", name, frac, sealOrder, window),
						w.EventSet(), builderWindow(t, truth.NumQueues, live))
				}
			}
		}
	}
}

func checkWindowCopy(t *testing.T, label string, got, want *trace.EventSet) {
	t.Helper()
	if got.NumTasks != want.NumTasks || got.NumQueues != want.NumQueues {
		t.Fatalf("%s: %d tasks / %d queues, want %d / %d", label, got.NumTasks, got.NumQueues, want.NumTasks, want.NumQueues)
	}
	for name, eq := range map[string]bool{
		"Events":  reflect.DeepEqual(got.Events, want.Events),
		"Arr":     reflect.DeepEqual(got.Arr, want.Arr),
		"Dep":     reflect.DeepEqual(got.Dep, want.Dep),
		"ByQueue": reflect.DeepEqual(got.ByQueue, want.ByQueue),
		"ByTask":  reflect.DeepEqual(got.ByTask, want.ByTask),
	} {
		if !eq {
			t.Fatalf("%s: window copy %s differs from the Builder rebuild", label, name)
		}
	}
	var sums [2]PosteriorSummary
	var params [2]Params
	for k, es := range []*trace.EventSet{got, want} {
		if err := ShiftTowardZero(es); err != nil {
			t.Fatal(err)
		}
		if _, err := MeanFieldInto(&sums[k], &params[k], es, MeanFieldOptions{}); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	if !reflect.DeepEqual(bits(params[0].Rates), bits(params[1].Rates)) ||
		!reflect.DeepEqual(bits(sums[0].MeanService), bits(sums[1].MeanService)) ||
		!reflect.DeepEqual(bits(sums[0].MeanWait), bits(sums[1].MeanWait)) {
		t.Fatalf("%s: mean-field fix point differs: rates %v vs %v, wait %v vs %v",
			label, params[0].Rates, params[1].Rates, sums[0].MeanWait, sums[1].MeanWait)
	}
}

// withGOMAXPROCS sets GOMAXPROCS for the rest of the test.
func withGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// benchEventGrid is the event-count axis of the time-to-first-estimate
// comparison: the three-tier {2,4,4} network produces ~11 events per task,
// so these task counts land the traces at ~1k, ~10k, and ~100k events.
func benchEventGrid() []struct {
	name  string
	tasks int
} {
	return []struct {
		name  string
		tasks int
	}{
		{"ev1k", 91},
		{"ev10k", 909},
		{"ev100k", 9091},
	}
}

// benchTraceSized builds the three-tier {2,4,4} trace at the given task
// count, masked at 10%.
func benchTraceSized(tb testing.TB, tasks int) *trace.EventSet {
	tb.Helper()
	_, truth, _ := simulateObserved(tb, must(qnet.PaperSynthetic(10, 5, [3]int{2, 4, 4})), tasks, 0.10, 1)
	return truth
}

// meanFieldSolver returns a solve of base run the way qserved's first
// publish runs it: a working copy from a ClonePool, results into a reused
// summary and params, and all solver state reused through a
// MeanFieldScratch. The first call grows those buffers to steady state.
func meanFieldSolver(tb testing.TB, base *trace.EventSet) func() {
	var (
		pool   trace.ClonePool
		sc     MeanFieldScratch
		sum    PosteriorSummary
		params Params
	)
	return func() {
		working := pool.Get(base)
		if _, err := MeanFieldInto(&sum, &params, working, MeanFieldOptions{Scratch: &sc}); err != nil {
			tb.Fatal(err)
		}
		pool.Put(working)
	}
}

// coldPosterior runs the offline reference estimate on a working copy of
// truth: a full StEM run (300 iterations) plus the posterior pass (40
// sweeps).
func coldPosterior(tb testing.TB, pool *trace.ClonePool, sum *PosteriorSummary, truth *trace.EventSet) {
	tb.Helper()
	working := pool.Get(truth)
	res, err := StEM(working, xrand.New(7), EMOptions{Iterations: 300})
	if err != nil {
		tb.Fatal(err)
	}
	if err := PosteriorInto(sum, working, res.Params, xrand.New(8), PosteriorOptions{Sweeps: 40}); err != nil {
		tb.Fatal(err)
	}
	pool.Put(working)
}

// BenchmarkMeanFieldSolve measures the deterministic mean-field fast path
// at steady state (meanFieldSolver). TestMeanFieldAllocs pins it at zero
// allocations and TestMeanFieldSpeedVsColdPosterior the ev10k row at
// >= 50x faster than BenchmarkColdPosterior.
func BenchmarkMeanFieldSolve(b *testing.B) {
	for _, bc := range benchEventGrid() {
		b.Run(bc.name, func(b *testing.B) {
			run := meanFieldSolver(b, benchTraceSized(b, bc.tasks))
			run() // steady state: grow the scratch, summary, and clone pool
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// BenchmarkColdPosterior measures the offline reference estimate on the
// same traces: a full StEM run (300 iterations) plus the posterior pass
// (40 sweeps), the denominator of TestMeanFieldSpeedVsColdPosterior.
func BenchmarkColdPosterior(b *testing.B) {
	for _, bc := range benchEventGrid() {
		b.Run(bc.name, func(b *testing.B) {
			truth := benchTraceSized(b, bc.tasks)
			var pool trace.ClonePool
			var sum PosteriorSummary
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				coldPosterior(b, &pool, &sum, truth)
			}
		})
	}
}
