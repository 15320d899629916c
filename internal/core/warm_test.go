package core

import (
	"maps"
	"math"
	"slices"
	"testing"

	"repro/internal/qnet"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func warmFill(t *testing.T, we *WarmEstimator, tasks []SlideTask) {
	t.Helper()
	for i, task := range tasks {
		if err := we.Append(task); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// TestWarmStepBatchingInvariant: spending an epoch in many small Step
// batches must be bit-identical to one full pass — that is what lets the
// shared executor slice sweeps across visits without changing estimates.
// The batched chains read the snapshot and the windowed summary between
// batches, as every anytime publish does; the reads must not advance the
// chain either, down to one sweep per batch. The chains run a cold epoch
// and then three warm ones with a one-task slide before each, so the StEM
// average carried across epochs is covered too.
func TestWarmStepBatchingInvariant(t *testing.T) {
	const nq, epochs = 3, 4
	cfg := WarmConfig{NumQueues: nq, EMIters: 40, PostSweeps: 20, Windows: 4}
	gen := newSlideGen(3, nq, 2.0, 3.0, 0.5)
	const window = 80
	tasks := gen.take(window + epochs - 1)

	// epoch advances est to its next epoch: the window slides by one task
	// (none before the first epoch) and a new epoch begins.
	epoch := func(est *WarmEstimator, e int) {
		t.Helper()
		if e == 0 {
			warmFill(t, est, tasks[:window])
		} else {
			warmFill(t, est, tasks[window-1+e:window+e])
			est.EvictOldest()
		}
		est.BeginEpoch()
	}

	type result struct {
		sweeps int
		sum    PosteriorSummary
		win    [][]trace.WindowStats
		rates  []float64
	}
	full := NewWarmEstimator(cfg)
	rngF := xrand.New(8)
	var fullRes []result
	for e := 0; e < epochs; e++ {
		epoch(full, e)
		if e > 0 && full.EMIters() >= cfg.EMIters {
			t.Fatalf("epoch %d ran cold: %d StEM iterations", e, full.EMIters())
		}
		ran := full.Step(rngF, 0)
		if e == 0 && ran != 60 {
			t.Fatalf("full pass ran %d sweeps, want 60", ran)
		}
		if !full.Done() {
			t.Fatal("full pass not done")
		}
		if e > 0 && !(full.EMWeight() > float64(full.EMIters())) {
			t.Fatalf("epoch %d carried nothing: weight %v after %d iterations", e, full.EMWeight(), full.EMIters())
		}
		var r result
		r.sweeps = ran
		full.SnapshotInto(&r.sum)
		var err error
		if r.win, err = full.WindowsInto(nil); err != nil {
			t.Fatal(err)
		}
		r.rates = full.RatesInto(nil)
		fullRes = append(fullRes, r)
	}

	for _, batch := range []int{7, 1} {
		batched := NewWarmEstimator(cfg)
		rngB := xrand.New(8)
		for e := 0; e < epochs; e++ {
			epoch(batched, e)
			f := fullRes[e]
			var sumB PosteriorSummary
			var winB [][]trace.WindowStats
			var err error
			steps := 0
			for !batched.Done() {
				ran := batched.Step(rngB, batch)
				if ran == 0 {
					t.Fatal("Step made no progress")
				}
				steps++
				batched.SnapshotInto(&sumB)
				if winB, err = batched.WindowsInto(winB); err != nil {
					t.Fatal(err)
				}
			}
			if want := (f.sweeps + batch - 1) / batch; steps != want {
				t.Fatalf("batch %d epoch %d: pass took %d steps, want %d", batch, e, steps, want)
			}
			sumF, winF := f.sum, f.win
			if sumF.Sweeps != sumB.Sweeps {
				t.Fatalf("batch %d epoch %d: kept sweeps differ: %d vs %d", batch, e, sumF.Sweeps, sumB.Sweeps)
			}
			for q := 0; q < nq; q++ {
				if !sameFloat(sumF.MeanService[q], sumB.MeanService[q]) || !sameFloat(sumF.MeanWait[q], sumB.MeanWait[q]) {
					t.Fatalf("batch %d epoch %d: queue %d means (%v, %v) vs (%v, %v)", batch, e, q,
						sumF.MeanService[q], sumF.MeanWait[q], sumB.MeanService[q], sumB.MeanWait[q])
				}
				if len(sumF.WaitChain[q]) != len(sumB.WaitChain[q]) {
					t.Fatalf("batch %d epoch %d: queue %d wait chain length %d vs %d", batch, e, q, len(sumF.WaitChain[q]), len(sumB.WaitChain[q]))
				}
				for b := range winF[q] {
					f, g := winF[q][b], winB[q][b]
					if f.Events != g.Events || !sameFloat(f.MeanService, g.MeanService) || !sameFloat(f.MeanWait, g.MeanWait) {
						t.Fatalf("batch %d epoch %d: bucket %d/%d %+v vs %+v", batch, e, q, b, f, g)
					}
				}
			}
			rF, rB := f.rates, batched.RatesInto(nil)
			for q := range rF {
				if rF[q] != rB[q] {
					t.Fatalf("batch %d epoch %d: queue %d rate %v vs %v", batch, e, q, rF[q], rB[q])
				}
			}
		}
	}
}

// sameFloat reports whether a and b are bit-identical (NaN equals NaN).
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestWarmIncrementalMatchesColdClone is the satellite regression test:
// after slides, a *cold* estimator constructed over a clone of the warm
// window's retained state produces bit-identical estimates under the same
// RNG — the incremental path loses nothing against a cold pass. In the
// first two cases the slide is too large for the warm schedule, so the
// epoch runs rebased from the carried rates: at EMIters 30 its burn-in,
// min(warmMinIters, 15), is the cold one, so a plain clone runs the same
// schedule; at EMIters 100 the clone must also know that its rates are a
// finished average. In the third a one-task slide makes the epoch warm
// (⌈50·(1/60)/warmMemory⌉ = 42 iterations), and the clone also takes the
// carried StEM sums and the slide count, so it runs the same warm
// schedule.
func TestWarmIncrementalMatchesColdClone(t *testing.T) {
	const nq = 3
	for _, tc := range []struct {
		name      string
		cfg       WarmConfig
		slide     int
		averaged  bool
		carry     bool
		wantIters int
	}{
		{"cold", WarmConfig{NumQueues: nq, EMIters: 30, PostSweeps: 15, Windows: 4}, 25, false, false, 30},
		{"rebased", WarmConfig{NumQueues: nq, EMIters: 100, PostSweeps: 15, Windows: 4}, 25, true, false, warmMinIters + 50},
		{"warm", WarmConfig{NumQueues: nq, EMIters: 100, PostSweeps: 15, Windows: 4}, 1, false, true, 42},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			gen := newSlideGen(19, nq, 2.0, 3.0, 0.5)
			warmup := gen.take(60)
			stream := gen.take(tc.slide)

			warm := NewWarmEstimator(cfg)
			warmFill(t, warm, warmup)
			warm.BeginEpoch()
			warm.Step(xrand.New(4), 0) // a full epoch of history on the warm path

			for _, task := range stream { // the slide the cold path never sees
				if err := warm.Append(task); err != nil {
					t.Fatal(err)
				}
				warm.EvictOldest()
			}

			cold := NewWarmEstimator(cfg)
			cold.win = warm.win.Clone()
			cold.rates = warm.RatesInto(nil)
			cold.haveRates = true
			cold.averaged = tc.averaged
			if tc.carry {
				copy(cold.emSum, warm.emSum)
				cold.emWeight, cold.carried, cold.appended = warm.emWeight, warm.carried, warm.appended
			}
			warm.BeginEpoch()
			cold.BeginEpoch()
			if warm.EMIters() != tc.wantIters || cold.EMIters() != tc.wantIters {
				t.Fatalf("StEM iterations: warm %d, clone %d; want %d", warm.EMIters(), cold.EMIters(), tc.wantIters)
			}

			rngW, rngC := xrand.New(55), xrand.New(55)
			for !warm.Done() {
				warm.Step(rngW, 5)
				cold.Step(rngC, 5)
			}
			if !cold.Done() {
				t.Fatal("cold pass not done")
			}

			var sw, sc PosteriorSummary
			warm.SnapshotInto(&sw)
			cold.SnapshotInto(&sc)
			for q := 0; q < nq; q++ {
				if sw.MeanService[q] != sc.MeanService[q] {
					t.Fatalf("queue %d mean service: warm %v cold %v", q, sw.MeanService[q], sc.MeanService[q])
				}
				if sw.MeanWait[q] != sc.MeanWait[q] && !(math.IsNaN(sw.MeanWait[q]) && math.IsNaN(sc.MeanWait[q])) {
					t.Fatalf("queue %d mean wait: warm %v cold %v", q, sw.MeanWait[q], sc.MeanWait[q])
				}
			}
			rw, rc := warm.RatesInto(nil), cold.RatesInto(nil)
			for q := range rw {
				if rw[q] != rc[q] {
					t.Fatalf("queue %d rate: warm %v cold %v", q, rw[q], rc[q])
				}
			}
			if warm.EMWeight() != cold.EMWeight() {
				t.Fatalf("StEM weight: warm %v cold %v", warm.EMWeight(), cold.EMWeight())
			}

			// The windowed summary is part of the contract too.
			ww, err := warm.WindowsInto(nil)
			if err != nil {
				t.Fatal(err)
			}
			wc, err := cold.WindowsInto(nil)
			if err != nil {
				t.Fatal(err)
			}
			for q := range ww {
				for b := range ww[q] {
					a, c := ww[q][b], wc[q][b]
					if a.Events != c.Events {
						t.Fatalf("cell %d/%d events %d vs %d", q, b, a.Events, c.Events)
					}
					if a.MeanWait != c.MeanWait && !(math.IsNaN(a.MeanWait) && math.IsNaN(c.MeanWait)) {
						t.Fatalf("cell %d/%d wait %v vs %v", q, b, a.MeanWait, c.MeanWait)
					}
				}
			}
		})
	}
}

// TestWarmAnytimeSnapshots: estimates must be available (and sane) after
// every partial Step, improving monotonically in kept-sweep count, and
// follow SnapshotInto's precedence: the one-shot means of the current
// state before a StEM iterate is kept, then the carried StEM means, then
// the posterior means once a posterior sweep is kept.
func TestWarmAnytimeSnapshots(t *testing.T) {
	const nq = 3
	cfg := WarmConfig{NumQueues: nq, EMIters: 20, PostSweeps: 20, PostBurnIn: 4}
	gen := newSlideGen(27, nq, 2.0, 3.0, 0.7)
	we := NewWarmEstimator(cfg)
	warmFill(t, we, gen.take(40))
	we.BeginEpoch()
	rng := xrand.New(2)
	var sum PosteriorSummary
	oneShotSvc, oneShotWait := make([]float64, nq), make([]float64, nq)
	lastKept := -1
	rules := map[string]int{}
	for !we.Done() {
		we.Step(rng, 3)
		we.SnapshotInto(&sum)
		we.Window().QueueMeansInto(oneShotSvc, oneShotWait)
		rule := "posterior"
		switch {
		case we.postKept > 0:
		case we.EMWeight() > 0:
			rule = "carried"
		default:
			rule = "one-shot"
		}
		rules[rule]++
		for q := 0; q < nq; q++ {
			if math.IsNaN(sum.MeanService[q]) || sum.MeanService[q] <= 0 {
				t.Fatalf("snapshot at %d sweeps: queue %d mean service %v", we.EpochSweeps(), q, sum.MeanService[q])
			}
			// q0's service is the window's interarrival gap, never carried.
			var svc, wait float64
			switch {
			case rule == "posterior":
				svc, wait = we.svcSum[q]/float64(we.postKept), we.waitSum[q]/float64(we.postKept)
			case rule == "carried" && q > 0:
				svc, wait = we.emSvcSum[q]/we.EMWeight(), we.emWaitSum[q]/we.EMWeight()
			default:
				svc, wait = oneShotSvc[q], oneShotWait[q]
			}
			if !sameFloat(sum.MeanService[q], svc) || !sameFloat(sum.MeanWait[q], wait) {
				t.Fatalf("snapshot at %d sweeps (%s): queue %d means (%v, %v), want (%v, %v)",
					we.EpochSweeps(), rule, q, sum.MeanService[q], sum.MeanWait[q], svc, wait)
			}
		}
		if sum.Sweeps != we.postKept {
			t.Fatalf("snapshot at %d sweeps: Sweeps %d, want the kept %d", we.EpochSweeps(), sum.Sweeps, we.postKept)
		}
		if sum.Sweeps < lastKept {
			t.Fatalf("kept sweeps went backward: %d -> %d", lastKept, sum.Sweeps)
		}
		lastKept = sum.Sweeps
	}
	// Steps of 3: sweeps 3–9 precede the first kept StEM iterate (burn-in
	// 10), 12–24 read the carry (the posterior burns in to 24), 27–39 and
	// the last, 40, the posterior.
	if want := map[string]int{"one-shot": 3, "carried": 5, "posterior": 6}; !maps.Equal(rules, want) {
		t.Fatalf("snapshots by rule %v, want %v", rules, want)
	}
	if lastKept != cfg.PostSweeps-cfg.PostBurnIn {
		t.Fatalf("final kept sweeps %d, want %d", lastKept, cfg.PostSweeps-cfg.PostBurnIn)
	}
	if got := we.EpochSweeps(); got != 40 {
		t.Fatalf("epoch sweeps %d, want 40", got)
	}
}

// TestWarmFinalizeMeansAverageKeptIterates: at the sweep that finalizes a
// cold epoch's StEM phase, the snapshot is the plain average of the
// per-queue means of the kept iterates' latent states, read after each
// M-step.
func TestWarmFinalizeMeansAverageKeptIterates(t *testing.T) {
	const nq = 4
	cfg := WarmConfig{NumQueues: nq, EMIters: 30, PostSweeps: 10}
	we := NewWarmEstimator(cfg)
	warmFill(t, we, newSlideGen(33, nq, 2.0, 3.0, 0.3).take(60))
	we.BeginEpoch()
	rng := xrand.New(4)
	svc, wait := make([]float64, nq), make([]float64, nq)
	sumSvc, sumWait := make([]float64, nq), make([]float64, nq)
	kept := 0
	for !we.EMFinal() {
		we.Step(rng, 1)
		if we.EpochSweeps() <= cfg.EMIters/2 {
			continue
		}
		we.Window().QueueMeansInto(svc, wait)
		for q := 0; q < nq; q++ {
			sumSvc[q] += svc[q]
			sumWait[q] += wait[q]
		}
		kept++
	}
	if kept != cfg.EMIters/2 || we.EMWeight() != float64(kept) {
		t.Fatalf("kept %d iterates, weight %v; want %d", kept, we.EMWeight(), cfg.EMIters/2)
	}
	var sum PosteriorSummary
	we.SnapshotInto(&sum)
	we.Window().QueueMeansInto(svc, wait)
	if sum.Sweeps != 0 || !sameFloat(sum.MeanService[0], svc[0]) {
		t.Fatalf("finalizing snapshot: %d kept sweeps, q0 service %v; want 0, the window's gap %v", sum.Sweeps, sum.MeanService[0], svc[0])
	}
	for q := 1; q < nq; q++ {
		k := float64(kept)
		if !sameFloat(sum.MeanService[q], sumSvc[q]/k) || !sameFloat(sum.MeanWait[q], sumWait[q]/k) {
			t.Fatalf("queue %d: finalizing means (%v, %v), want the kept iterates' average (%v, %v)",
				q, sum.MeanService[q], sum.MeanWait[q], sumSvc[q]/k, sumWait[q]/k)
		}
	}
}

// TestWarmCarriedMeansFollowRates: the carried StEM means follow the rate
// sums through every kind of epoch start. A warm epoch discounts them by
// the same keep as emSum and emWeight, so until its own iterates land the
// snapshot still reads the previous epoch's carried means; a cold epoch,
// a rebased one (a slide too large for the warm schedule) and Reset start
// them empty.
func TestWarmCarriedMeansFollowRates(t *testing.T) {
	const nq = 3
	cfg := WarmConfig{NumQueues: nq, EMIters: 100, PostSweeps: 15}
	gen := newSlideGen(47, nq, 2.0, 3.0, 0.5)
	history := gen.take(62)
	requireEmpty := func(what string, we *WarmEstimator) {
		t.Helper()
		for q := 0; q < nq; q++ {
			if we.emSum[q] != 0 || we.emSvcSum[q] != 0 || we.emWaitSum[q] != 0 || we.EMWeight() != 0 {
				t.Fatalf("%s: queue %d carries rate sum %v, means (%v, %v), weight %v; want all 0",
					what, q, we.emSum[q], we.emSvcSum[q], we.emWaitSum[q], we.EMWeight())
			}
		}
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Abs(b) }

	cold := NewWarmEstimator(cfg)
	warmFill(t, cold, history[:60])
	cold.BeginEpoch()
	requireEmpty("cold epoch", cold)

	used := usedEstimator(t, cfg, history)
	var before PosteriorSummary
	used.SnapshotInto(&before)
	rateSum := slices.Clone(used.emSum)
	svcSum, waitSum, weight := slices.Clone(used.emSvcSum), slices.Clone(used.emWaitSum), used.EMWeight()
	warmFill(t, used, gen.take(1))
	used.EvictOldest()
	used.BeginEpoch()
	if used.EMIters() >= cfg.EMIters {
		t.Fatalf("one-task slide ran %d StEM iterations, want a warm epoch", used.EMIters())
	}
	keep := used.EMWeight() / weight
	if !(keep > 0 && keep < 1) {
		t.Fatalf("warm discount %v, want in (0, 1)", keep)
	}
	var carried PosteriorSummary
	used.SnapshotInto(&carried)
	for q := 1; q < nq; q++ {
		if !near(used.emSum[q], keep*rateSum[q]) || !near(used.emSvcSum[q], keep*svcSum[q]) || !near(used.emWaitSum[q], keep*waitSum[q]) {
			t.Fatalf("queue %d: warm epoch carries rate sum %v, means (%v, %v); want %v× (%v, %v, %v)", q,
				used.emSum[q], used.emSvcSum[q], used.emWaitSum[q], keep, rateSum[q], svcSum[q], waitSum[q])
		}
		if want := svcSum[q] / weight; carried.Sweeps != 0 || !near(carried.MeanService[q], want) {
			t.Fatalf("queue %d: snapshot before the warm epoch's first iterate serves %v from %d sweeps, want the carried %v",
				q, carried.MeanService[q], carried.Sweeps, want)
		}
		if before.Sweeps == 0 || sameFloat(before.MeanService[q], carried.MeanService[q]) {
			t.Fatalf("queue %d: the finished epoch served %v from %d posterior sweeps, the carry %v", q,
				before.MeanService[q], before.Sweeps, carried.MeanService[q])
		}
	}

	rng := xrand.New(5)
	used.Step(rng, 0)
	warmFill(t, used, gen.take(30))
	for used.Window().LiveTasks() > 60 {
		used.EvictOldest()
	}
	used.BeginEpoch()
	if want := warmMinIters + cfg.EMIters/2; used.EMIters() != want {
		t.Fatalf("30-task slide ran %d StEM iterations, want the rebased %d", used.EMIters(), want)
	}
	requireEmpty("rebased epoch", used)

	used.Step(rng, 0)
	used.Reset()
	requireEmpty("Reset", used)
}

// TestWarmCarriedMeansEmptyQueue: a queue with no events through an
// epoch carries NaN means into the warm epochs after it. Once events reach
// the queue again, the snapshot serves their one-shot means until a
// posterior sweep is kept, not the NaN carry.
func TestWarmCarriedMeansEmptyQueue(t *testing.T) {
	const nq, window = 3, 100
	task := func(i int, queues ...int) SlideTask {
		entry := float64(i)
		tk := SlideTask{Entry: entry, EntryObs: true}
		at := entry
		for _, q := range queues {
			dep := at + 0.1 + 0.01*float64(i%7)
			tk.Events = append(tk.Events, SlideEvent{Queue: q, State: trace.None, Arr: at, Dep: dep, ObsArr: true, ObsDep: true})
			at = dep
		}
		return tk
	}
	we := NewWarmEstimator(WarmConfig{NumQueues: nq, EMIters: 100, PostSweeps: 10})
	for i := 0; i < window; i++ {
		warmFill(t, we, []SlideTask{task(i, 1)})
	}
	rng := xrand.New(3)
	we.BeginEpoch()
	we.Step(rng, 0)
	warmFill(t, we, []SlideTask{task(window, 1, 2)})
	we.EvictOldest()
	we.BeginEpoch()
	if we.EMIters() >= 100 || !math.IsNaN(we.emSvcSum[2]) {
		t.Fatalf("epoch after the queue's first event: %d StEM iterations, carried service sum %v; want a warm epoch carrying NaN",
			we.EMIters(), we.emSvcSum[2])
	}
	we.Step(rng, we.EMIters())
	var sum PosteriorSummary
	we.SnapshotInto(&sum)
	svc, wait := make([]float64, nq), make([]float64, nq)
	we.Window().QueueMeansInto(svc, wait)
	if !we.EMFinal() || math.IsNaN(sum.MeanService[2]) || sum.MeanService[2] != svc[2] || sum.MeanWait[2] != wait[2] {
		t.Fatalf("finalizing snapshot of queue 2: (%v, %v), want the one-shot (%v, %v)", sum.MeanService[2], sum.MeanWait[2], svc[2], wait[2])
	}
}

// TestWarmWindowsMatchTraceBuckets ties WindowsInto to the reference
// bucketing, trace.WindowedStats of the window's event set, on every
// service queue. Before any kept sweep it is one pass of the current
// state. After the epoch it is, per bucket, the average of the kept
// sweeps' means over the sweeps in which the bucket had events, and the
// rounded average event count; the one-shot read must leave nothing in
// the accumulators.
func TestWarmWindowsMatchTraceBuckets(t *testing.T) {
	const nq, n = 3, 5
	cfg := WarmConfig{NumQueues: nq, EMIters: 10, PostSweeps: 12, PostBurnIn: NoBurnIn, Windows: n}
	gen := newSlideGen(33, nq, 2.0, 3.0, 0.4)
	we := NewWarmEstimator(cfg)
	warmFill(t, we, gen.take(60))
	we.BeginEpoch()
	rng := xrand.New(5)
	we.Step(rng, cfg.EMIters)
	pass := func() [][]trace.WindowStats {
		lo, hi := we.Window().Span()
		ws, err := we.Window().EventSet().WindowedStats(lo, hi, n)
		if err != nil {
			t.Fatal(err)
		}
		return ws
	}
	compare := func(when string, want [][]trace.WindowStats) {
		t.Helper()
		got, err := we.WindowsInto(nil)
		if err != nil {
			t.Fatal(err)
		}
		near := func(a, b float64) bool {
			return math.IsNaN(a) && math.IsNaN(b) || math.Abs(a-b) <= 1e-12*math.Abs(b)
		}
		for q := 1; q < nq; q++ {
			for b := 0; b < n; b++ {
				g, w := got[q][b], want[q][b]
				if g.Events != w.Events || g.Lo != w.Lo || g.Hi != w.Hi ||
					!near(g.MeanService, w.MeanService) || !near(g.MeanWait, w.MeanWait) {
					t.Fatalf("%s: bucket %d/%d is %+v, want %+v", when, q, b, g, w)
				}
			}
		}
	}
	compare("one-shot", pass())

	want := pass()
	events := make([][]int, nq)
	kept := make([][]int, nq)
	for q := range want {
		events[q], kept[q] = make([]int, n), make([]int, n)
		for b := range want[q] {
			want[q][b].MeanService, want[q][b].MeanWait = 0, 0
		}
	}
	for !we.Done() {
		we.Step(rng, 1)
		for q, cells := range pass() {
			for b, c := range cells {
				if c.Events > 0 {
					events[q][b] += c.Events
					kept[q][b]++
					want[q][b].MeanService += c.MeanService
					want[q][b].MeanWait += c.MeanWait
				}
			}
		}
	}
	for q := range want {
		for b := range want[q] {
			if kept[q][b] == 0 {
				want[q][b].MeanService, want[q][b].MeanWait = math.NaN(), math.NaN()
				continue
			}
			k := float64(kept[q][b])
			want[q][b].Events = int(math.Round(float64(events[q][b]) / k))
			want[q][b].MeanService /= k
			want[q][b].MeanWait /= k
		}
	}
	compare("after the epoch", want)
}

// TestWarmResetLifecycle covers the stream-gap story: Reset drops the
// estimator's window and keeps the finished epoch's rates, and the engine
// stays usable after it.
func TestWarmResetLifecycle(t *testing.T) {
	const nq = 3
	cfg := WarmConfig{NumQueues: nq, EMIters: 10, PostSweeps: 10}
	gen := newSlideGen(41, nq, 2.0, 3.0, 0.8)

	we := NewWarmEstimator(cfg)
	warmFill(t, we, gen.take(30))
	we.BeginEpoch()
	we.Step(xrand.New(1), 0)
	if we.Window().LiveTasks() != 30 {
		t.Fatalf("live tasks %d, want 30", we.Window().LiveTasks())
	}
	preRates := we.RatesInto(nil)

	// The stream gap: Reset drops latents and stats, and keeps the rates,
	// which are the finished StEM average.
	we.Reset()
	if we.Window().LiveTasks() != 0 || we.Window().LiveEvents() != 0 {
		t.Fatal("Reset kept window contents")
	}
	if we.EpochSweeps() != 0 {
		t.Fatal("Reset kept epoch progress")
	}
	post := we.RatesInto(nil)
	for q := range post {
		if post[q] != preRates[q] {
			t.Fatalf("queue %d rate %v after Reset, want the kept %v", q, post[q], preRates[q])
		}
	}

	// The engine is reusable after the gap: fresh tasks, fresh epoch,
	// no panic from carried indices, and invariants hold.
	warmFill(t, we, gen.take(20))
	we.BeginEpoch()
	we.Step(xrand.New(2), 0)
	if err := we.Window().CheckInvariants(1e-7); err != nil {
		t.Fatal(err)
	}
	if we.Window().LiveTasks() != 20 {
		t.Fatalf("live tasks %d, want 20", we.Window().LiveTasks())
	}
}

// usedEstimator returns an estimator that has run a cold epoch and two
// warm ones over history, so that it carries StEM sums, a slide count and
// finished rates into whatever comes next.
func usedEstimator(t *testing.T, cfg WarmConfig, history []SlideTask) *WarmEstimator {
	t.Helper()
	used := NewWarmEstimator(cfg)
	warmFill(t, used, history[:60])
	rng := xrand.New(9)
	for e := 0; e < 3; e++ {
		if e > 0 {
			warmFill(t, used, history[59+e:60+e])
			used.EvictOldest()
		}
		used.BeginEpoch()
		if e > 0 && used.EMIters() >= cfg.EMIters {
			t.Fatalf("history epoch %d ran cold", e)
		}
		used.Step(rng, 0)
	}
	return used
}

// requireSameEpoch fails unless a and b ended their epochs with the same
// StEM schedule and bit-identical rates, carried StEM means, posterior
// means and windowed summary.
func requireSameEpoch(t *testing.T, a, b *WarmEstimator) {
	t.Helper()
	if a.EMIters() != b.EMIters() || a.EMWeight() != b.EMWeight() {
		t.Fatalf("StEM schedule: %d iterations, weight %v; want %d, %v",
			a.EMIters(), a.EMWeight(), b.EMIters(), b.EMWeight())
	}
	ra, rb := a.RatesInto(nil), b.RatesInto(nil)
	var sa, sb PosteriorSummary
	a.SnapshotInto(&sa)
	b.SnapshotInto(&sb)
	wa, err := a.WindowsInto(nil)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := b.WindowsInto(nil)
	if err != nil {
		t.Fatal(err)
	}
	for q := range ra {
		if !sameFloat(a.emSvcSum[q], b.emSvcSum[q]) || !sameFloat(a.emWaitSum[q], b.emWaitSum[q]) {
			t.Fatalf("queue %d: carried StEM means sum to (%v, %v); want (%v, %v)", q,
				a.emSvcSum[q], a.emWaitSum[q], b.emSvcSum[q], b.emWaitSum[q])
		}
		if !sameFloat(ra[q], rb[q]) || !sameFloat(sa.MeanService[q], sb.MeanService[q]) || !sameFloat(sa.MeanWait[q], sb.MeanWait[q]) {
			t.Fatalf("queue %d: rate %v, means (%v, %v); want %v, (%v, %v)", q,
				ra[q], sa.MeanService[q], sa.MeanWait[q], rb[q], sb.MeanService[q], sb.MeanWait[q])
		}
		for k := range wa[q] {
			x, y := wa[q][k], wb[q][k]
			if x.Events != y.Events || !sameFloat(x.MeanService, y.MeanService) || !sameFloat(x.MeanWait, y.MeanWait) {
				t.Fatalf("bucket %d/%d: %+v, want %+v", q, k, x, y)
			}
		}
	}
}

// TestWarmResetKeepsFinishedRates: a Reset after a finished StEM phase
// keeps the rates, and the next epoch runs rebased: from empty sums,
// min(warmMinIters, EMBurnIn) iterations of burn-in and then the cold
// schedule's EMIters − EMBurnIn kept, so its weight is that kept count.
// The epoch is bit-identical to a fresh estimator's started from the kept
// rates, so Reset drops the carried sums, the slide count, the window and
// the accumulators.
func TestWarmResetKeepsFinishedRates(t *testing.T) {
	const nq = 3
	cfg := WarmConfig{NumQueues: nq, EMIters: 100, PostSweeps: 15, Windows: 4}
	gen := newSlideGen(47, nq, 2.0, 3.0, 0.5)
	history, after := gen.take(62), gen.take(40)

	used := usedEstimator(t, cfg, history)
	kept := used.RatesInto(nil)
	used.Reset()
	if got := used.RatesInto(nil); !slices.Equal(got, kept) {
		t.Fatalf("rates %v after Reset, want the finished average %v", got, kept)
	}

	fresh := NewWarmEstimator(cfg)
	copy(fresh.rates, kept)
	fresh.haveRates, fresh.averaged = true, true
	for _, we := range []*WarmEstimator{used, fresh} {
		warmFill(t, we, after)
		we.BeginEpoch()
		we.Step(xrand.New(21), 0)
	}
	if want := warmMinIters + 50; used.EMIters() != want || used.EMWeight() != 50 {
		t.Fatalf("rebased epoch: %d StEM iterations, weight %v; want %d and 50", used.EMIters(), used.EMWeight(), want)
	}
	requireSameEpoch(t, used, fresh)
}

// TestWarmResetMatchesFresh: after a Reset that keeps no rates, the next
// epoch is cold and bit-identical to a fresh estimator's over the same
// tasks. That is a Reset mid-StEM, whose rates are one iterate, and a
// Reset whose rates are not all finite and positive, the poisoned-window
// path.
func TestWarmResetMatchesFresh(t *testing.T) {
	const nq = 3
	cfg := WarmConfig{NumQueues: nq, EMIters: 100, PostSweeps: 15, Windows: 4}
	for _, tc := range []struct {
		name  string
		spoil func(t *testing.T, we *WarmEstimator)
	}{
		{"midStEM", func(t *testing.T, we *WarmEstimator) {
			warmFill(t, we, newSlideGen(47, nq, 2.0, 3.0, 0.5).take(63)[62:])
			we.BeginEpoch()
			we.Step(xrand.New(3), 5)
			if we.EMFinal() {
				t.Fatal("StEM phase finished after 5 sweeps")
			}
		}},
		{"nonFinite", func(t *testing.T, we *WarmEstimator) { we.rates[1] = math.NaN() }},
		{"infinite", func(t *testing.T, we *WarmEstimator) { we.rates[2] = math.Inf(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gen := newSlideGen(47, nq, 2.0, 3.0, 0.5)
			history, after := gen.take(62), gen.take(40)
			used := usedEstimator(t, cfg, history)
			tc.spoil(t, used)
			used.Reset()

			fresh := NewWarmEstimator(cfg)
			for _, we := range []*WarmEstimator{used, fresh} {
				warmFill(t, we, after)
				we.BeginEpoch()
				we.Step(xrand.New(21), 0)
			}
			if used.EMIters() != cfg.EMIters {
				t.Fatalf("after Reset: %d StEM iterations, want the cold %d", used.EMIters(), cfg.EMIters)
			}
			requireSameEpoch(t, used, fresh)
		})
	}
}

// TestWarmEpochAcrossSlides: scratch and accumulator state is reused
// across epochs with slides in between; each epoch starts clean.
func TestWarmEpochAcrossSlides(t *testing.T) {
	const nq = 3
	cfg := WarmConfig{NumQueues: nq, EMIters: 12, PostSweeps: 8}
	gen := newSlideGen(61, nq, 2.0, 3.0, 0.5)
	we := NewWarmEstimator(cfg)
	warmFill(t, we, gen.take(40))
	rng := xrand.New(7)
	var sum PosteriorSummary
	for epoch := 0; epoch < 5; epoch++ {
		we.BeginEpoch()
		if we.EpochSweeps() != 0 || we.Done() {
			t.Fatalf("epoch %d did not start clean", epoch)
		}
		for !we.Done() {
			we.Step(rng, 6)
		}
		we.SnapshotInto(&sum)
		if sum.Sweeps <= 0 {
			t.Fatalf("epoch %d kept no sweeps", epoch)
		}
		for i := 0; i < 10; i++ {
			if err := we.Append(gen.next()); err != nil {
				t.Fatalf("epoch %d append %d: %v", epoch, i, err)
			}
			we.EvictOldest()
		}
		if err := we.Window().CheckInvariants(1e-7); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	}
}

// TestWarmColdEpochGolden pins a first (cold) epoch bit for bit, at the
// default serve schedule on a simulated three-tier window: its rates, its
// posterior means and its windowed summary. Cold epochs run the full
// EMIters schedule from empty sums, so these hashes must not move with
// any change to the warm schedule. They were re-recorded when the sweep
// began summing its per-queue statistics in one pass and drawing with the
// exp/log forms.
func TestWarmColdEpochGolden(t *testing.T) {
	net := must(qnet.PaperSynthetic(4, 5, [3]int{1, 2, 4}))
	want := map[float64][2]uint64{
		0.1: {0xbadfb8586be20d69, 0xe869a133587f9036},
		0.3: {0x148f3a0476142261, 0xf606aa1b91056766},
	}
	for _, frac := range []float64{0.1, 0.3} {
		truth, _, _ := simulateObserved(t, net, 200, frac, uint64(700+int(frac*100)))
		we := NewWarmEstimator(WarmConfig{NumQueues: truth.NumQueues, EMIters: 300, PostSweeps: 40, Windows: 6})
		warmFill(t, we, slideTasksOf(truth))
		we.BeginEpoch()
		we.Step(xrand.New(3), 0)
		var sum PosteriorSummary
		we.SnapshotInto(&sum)
		ws, err := we.WindowsInto(nil)
		if err != nil {
			t.Fatal(err)
		}
		var cells []float64
		for _, qs := range ws {
			for _, c := range qs {
				cells = append(cells, float64(c.Events), c.MeanService, c.MeanWait)
			}
		}
		got := [2]uint64{hashFloats(we.RatesInto(nil), sum.MeanService, sum.MeanWait), hashFloats(cells)}
		if got != want[frac] {
			t.Errorf("frac %v: cold epoch hashes %#x, want %#x", frac, got, want[frac])
		}
	}
}
