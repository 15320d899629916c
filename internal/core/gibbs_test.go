package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/qnet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// simulateObserved builds a ground-truth trace from the given network and
// masks observations at the task level. Returns (inference copy, truth,
// observed task ids).
func simulateObserved(t testing.TB, net *qnet.Network, tasks int, frac float64, seed uint64) (*trace.EventSet, *trace.EventSet, []int) {
	t.Helper()
	r := xrand.New(seed)
	truth, err := sim.Run(net, r, sim.Options{Tasks: tasks})
	if err != nil {
		t.Fatal(err)
	}
	obs := truth.ObserveTasks(r, frac)
	working := truth.Clone()
	return working, truth, obs
}

// must unwraps constructor results in tests.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// initializedWorking builds a masked, order-initialized working copy for
// sampler tests (the state StEM would hand to the posterior pass).
func initializedWorking(t testing.TB, structure [3]int, tasks int, frac float64, seed uint64) (*trace.EventSet, *trace.EventSet, Params) {
	t.Helper()
	net := must(qnet.PaperSynthetic(10, 5, structure))
	working, truth, _ := simulateObserved(t, net, tasks, frac, seed)
	params, err := NewParams(net.ServiceRates())
	if err != nil {
		t.Fatal(err)
	}
	if err := (OrderInitializer{}).Initialize(working, params); err != nil {
		t.Fatal(err)
	}
	return working, truth, params
}

func TestGibbsPreservesFeasibilityAndObservations(t *testing.T) {
	net := must(qnet.PaperSynthetic(10, 5, [3]int{1, 2, 4}))
	working, truth, _ := simulateObserved(t, net, 300, 0.2, 99)
	params, err := NewParams(net.ServiceRates())
	if err != nil {
		t.Fatal(err)
	}
	// Scramble the latent values via the initializer first.
	if err := (OrderInitializer{}).Initialize(working, params); err != nil {
		t.Fatal(err)
	}
	g, err := NewGibbs(working, params, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for sweep := 0; sweep < 25; sweep++ {
		g.Sweep()
		if err := working.Validate(1e-6); err != nil {
			t.Fatalf("sweep %d broke feasibility: %v", sweep, err)
		}
	}
	// Observed values must be untouched.
	for i := range truth.Events {
		te := &truth.Events[i]
		if te.ObsArrival && math.Abs(truth.Arr[i]-working.Arr[i]) > 0 {
			t.Fatalf("event %d observed arrival moved: %v -> %v", i, truth.Arr[i], working.Arr[i])
		}
		if te.Final() && te.ObsDepart && truth.Dep[i] != working.Dep[i] {
			t.Fatalf("event %d observed final departure moved", i)
		}
	}
}

// TestGibbsExactSingleLatent builds one task through a two-queue tandem
// with everything observed except the intermediate arrival x. Its exact
// conditional is TruncExp: p(x) ∝ exp((µB−µA)x) on (entry, dFinal). The
// Gibbs chain must reproduce its mean.
func TestGibbsExactSingleLatent(t *testing.T) {
	muA, muB := 3.0, 1.0
	b := trace.NewBuilder(3)
	task := b.StartTask(1.0) // entry observed
	if _, err := b.AddEvent(task, 0, 1, 1.0, 1.8); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddEvent(task, 1, 2, 1.8, 3.0); err != nil {
		t.Fatal(err)
	}
	es, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Observe entry (arrival of event 1) and final departure; leave the
	// intermediate arrival (event 2 arrival = event 1 departure) latent.
	es.Events[1].ObsArrival = true
	es.Events[2].ObsDepart = true

	params, err := NewParams([]float64{1, muA, muB})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGibbs(es, params, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumLatent() != 1 {
		t.Fatalf("latent count %d, want 1", g.NumLatent())
	}
	var acc stats.Online
	for sweep := 0; sweep < 200000; sweep++ {
		g.Sweep()
		acc.Add(es.Arr[2])
	}
	// Exact mean of density ∝ exp(m x) on (lo,hi), m = muB - muA = -2:
	// shifted TruncExp with rate -m on width w: mean = lo + 1/(-m)·... use
	// formula mean = lo + w/(1-exp(-m'w)) - 1/m' with m' = -m for density
	// exp(-m' t) on (0,w).
	lo, hi := 1.0, 3.0
	mp := muA - muB // 2
	w := hi - lo
	want := lo + 1/mp - w*math.Exp(-mp*w)/(1-math.Exp(-mp*w))
	if math.Abs(acc.Mean()-want) > 0.01 {
		t.Fatalf("posterior mean of latent arrival %v, exact %v", acc.Mean(), want)
	}
}

// TestGibbsStationaryAtTruth starts the chain at the ground-truth state
// with the true parameters; after many sweeps the per-queue mean service
// times must stay near the ground-truth values (the posterior is centered
// near the truth when initialized there).
func TestGibbsStationaryAtTruth(t *testing.T) {
	net := must(qnet.PaperSynthetic(10, 5, [3]int{2, 1, 4}))
	working, truth, _ := simulateObserved(t, net, 400, 0.25, 3)
	params, err := NewParams(net.ServiceRates())
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGibbs(working, params, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	nq := working.NumQueues
	acc := make([]stats.Online, nq)
	for sweep := 0; sweep < 300; sweep++ {
		g.Sweep()
		if sweep < 50 {
			continue
		}
		ms := working.MeanServiceByQueue()
		for q := 0; q < nq; q++ {
			acc[q].Add(ms[q])
		}
	}
	trueMS := truth.MeanServiceByQueue()
	for q := 1; q < nq; q++ {
		got := acc[q].Mean()
		// Posterior mean should track the empirical truth loosely; the
		// check guards against systematic drift (e.g. a sign error in a
		// slope would push services toward 0 or the prior mean).
		if math.Abs(got-trueMS[q]) > 0.5*trueMS[q]+0.02 {
			t.Errorf("queue %d: posterior mean service %v drifted from truth %v", q, got, trueMS[q])
		}
	}
}

func TestGibbsFullObservationIsNoOp(t *testing.T) {
	net := must(qnet.PaperSynthetic(10, 5, [3]int{1, 1, 1}))
	working, truth, _ := simulateObserved(t, net, 100, 1.0, 5)
	params, err := NewParams(net.ServiceRates())
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGibbs(working, params, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumLatent() != 0 {
		t.Fatalf("fully observed trace has %d latent variables", g.NumLatent())
	}
	g.Sweep()
	for i := range truth.Events {
		if truth.Arr[i] != working.Arr[i] || truth.Dep[i] != working.Dep[i] {
			t.Fatalf("fully observed sweep changed event %d", i)
		}
	}
}

func TestGibbsRejectsBadInputs(t *testing.T) {
	net := must(qnet.SingleMM1(2, 5))
	working, _, _ := simulateObserved(t, net, 20, 0.5, 8)
	good, err := NewParams([]float64{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGibbs(working, Params{Rates: []float64{1}}, xrand.New(1)); err == nil {
		t.Error("wrong rate count should fail")
	}
	if _, err := NewGibbs(working, Params{Rates: []float64{1, -2}}, xrand.New(1)); err == nil {
		t.Error("negative rate should fail")
	}
	if _, err := NewGibbs(working, good, nil); err == nil {
		t.Error("nil rng should fail")
	}
	// Infeasible state (corrupt a latent value grossly).
	bad := working.Clone()
	bad.Dep[1] = -100
	if _, err := NewGibbs(bad, good, xrand.New(1)); err == nil {
		t.Error("infeasible state should fail")
	}
}

// TestGibbsMovesFreeFinalDepartures verifies the extra final-departure move:
// with the final departure latent, its imputed value must change across
// sweeps and stay above its service start.
func TestGibbsMovesFreeFinalDepartures(t *testing.T) {
	net := must(qnet.SingleMM1(2, 4))
	working, _, _ := simulateObserved(t, net, 50, 0.0, 13)
	params, err := NewParams([]float64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := (OrderInitializer{}).Initialize(working, params); err != nil {
		t.Fatal(err)
	}
	g, err := NewGibbs(working, params, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// Find the last event in queue 1's order (unbounded departure move).
	ids := working.ByQueue[1]
	last := ids[len(ids)-1]
	if !working.Events[last].Final() {
		t.Fatalf("last event in queue is not final")
	}
	before := working.Dep[last]
	moved := false
	for sweep := 0; sweep < 10; sweep++ {
		g.Sweep()
		if working.Dep[last] != before {
			moved = true
		}
		if working.Dep[last] < working.ServiceStart(last)-1e-9 {
			t.Fatalf("final departure below service start")
		}
	}
	if !moved {
		t.Fatal("latent final departure never moved")
	}
}

// TestGibbsSkipsDegenerateWindows builds a trace where the latent
// arrival's feasible window has zero width (all neighboring times
// coincide); the sampler must skip the move, count it, and leave the
// value unchanged.
func TestGibbsSkipsDegenerateWindows(t *testing.T) {
	b := trace.NewBuilder(3)
	task := b.StartTask(1.0)
	if _, err := b.AddEvent(task, 0, 1, 1.0, 1.0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddEvent(task, 1, 2, 1.0, 1.0); err != nil {
		t.Fatal(err)
	}
	es, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	es.Events[1].ObsArrival = true // entry pinned at 1.0
	es.Events[2].ObsDepart = true  // exit pinned at 1.0
	params, err := NewParams([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGibbs(es, params, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumLatent() != 1 {
		t.Fatalf("latent count %d", g.NumLatent())
	}
	g.Sweep()
	g.Sweep()
	if g.Skipped() < 2 {
		t.Fatalf("skipped %d, want >= 2", g.Skipped())
	}
	if es.Arr[2] != 1.0 {
		t.Fatalf("degenerate latent moved to %v", es.Arr[2])
	}
}

// TestIncrementalStatsMatchRescan is the debug cross-check of the
// incremental sufficient statistics: the running per-queue
// Σservice/Σwait must track a full rescan to within 1e-9 after every
// sweep.
func TestIncrementalStatsMatchRescan(t *testing.T) {
	working, _, params := initializedWorking(t, [3]int{2, 1, 4}, 400, 0.1, 17)
	g, err := NewGibbs(working, params, xrand.New(23))
	if err != nil {
		t.Fatal(err)
	}
	g.EnableQueueStats()
	for sweep := 0; sweep < 40; sweep++ {
		g.Sweep()
		if err := g.CheckQueueStats(1e-9); err != nil {
			t.Fatalf("sweep %d: %v", sweep, err)
		}
	}
	svc, wait := working.SumServiceWaitByQueue()
	for q := range svc {
		if d := math.Abs(g.stats.svc[q] - svc[q]); d > 1e-9 {
			t.Fatalf("queue %d: |incremental - rescan| service = %v > 1e-9", q, d)
		}
		if d := math.Abs(g.stats.wait[q] - wait[q]); d > 1e-9 {
			t.Fatalf("queue %d: |incremental - rescan| wait = %v > 1e-9", q, d)
		}
	}
}

// TestPosteriorDebugStats runs the full posterior pass with the per-sweep
// rescan cross-check enabled.
func TestPosteriorDebugStats(t *testing.T) {
	working, truth, params := initializedWorking(t, [3]int{1, 2, 4}, 300, 0.25, 41)
	sum, err := Posterior(working, params, xrand.New(9), PosteriorOptions{
		Sweeps: 40, DebugStats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	trueMW := truth.MeanWaitByQueue()
	for q := 1; q < truth.NumQueues; q++ {
		if math.IsNaN(sum.MeanWait[q]) {
			t.Fatalf("queue %d: NaN posterior wait", q)
		}
		if math.Abs(sum.MeanWait[q]-trueMW[q]) > 0.5*trueMW[q]+0.05 {
			t.Errorf("queue %d: posterior wait %v far from truth %v", q, sum.MeanWait[q], trueMW[q])
		}
	}
}

// TestBurnInSentinel covers the explicit-zero-burn-in fix: BurnIn: 0 keeps
// the documented default, NoBurnIn really disables burn-in.
func TestBurnInSentinel(t *testing.T) {
	working, _, params := initializedWorking(t, [3]int{1, 2, 4}, 60, 0.3, 77)

	sum, err := Posterior(working.Clone(), params, xrand.New(2), PosteriorOptions{Sweeps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Sweeps != 8 { // default burn-in Sweeps/5 = 2
		t.Fatalf("default burn-in kept %d sweeps, want 8", sum.Sweeps)
	}
	sum, err = Posterior(working.Clone(), params, xrand.New(2), PosteriorOptions{Sweeps: 10, BurnIn: NoBurnIn})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Sweeps != 10 {
		t.Fatalf("NoBurnIn kept %d sweeps, want 10", sum.Sweeps)
	}

	// StEM: NoBurnIn averages every iterate; History confirms the run size.
	res, err := StEM(working.Clone(), xrand.New(3), EMOptions{Iterations: 10, BurnIn: NoBurnIn, KeepHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 10 {
		t.Fatalf("StEM ran %d iterations, want 10", len(res.History))
	}
}

// TestPosteriorWaitChainSkipsEmptyQueues: queues with no events must keep
// a nil WaitChain slot (and NaN means) instead of an allocated empty one.
func TestPosteriorWaitChainSkipsEmptyQueues(t *testing.T) {
	b := trace.NewBuilder(4) // queue 3 never used
	entry := 0.0
	for k := 0; k < 20; k++ {
		entry += 0.5
		task := b.StartTask(entry)
		if _, err := b.AddEvent(task, 0, 1, entry, entry+0.2); err != nil {
			t.Fatal(err)
		}
		if _, err := b.AddEvent(task, 1, 2, entry+0.2, entry+0.3); err != nil {
			t.Fatal(err)
		}
	}
	es, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	es.ObserveTasks(xrand.New(1), 0.5)
	params, err := NewParams([]float64{2, 5, 10, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := (OrderInitializer{}).Initialize(es, params); err != nil {
		t.Fatal(err)
	}
	sum, err := Posterior(es, params, xrand.New(4), PosteriorOptions{Sweeps: 10, DebugStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if sum.WaitChain[3] != nil {
		t.Fatalf("empty queue got a WaitChain slice (len %d)", len(sum.WaitChain[3]))
	}
	if !math.IsNaN(sum.MeanWait[3]) || !math.IsNaN(sum.MeanService[3]) {
		t.Fatalf("empty queue means not NaN: %v %v", sum.MeanWait[3], sum.MeanService[3])
	}
	for q := 1; q <= 2; q++ {
		if len(sum.WaitChain[q]) != sum.Sweeps {
			t.Fatalf("queue %d chain has %d entries, want %d", q, len(sum.WaitChain[q]), sum.Sweeps)
		}
	}
}

// TestSequentialGibbsGolden pins the sequential engine bit for bit on
// seeded simulator traces at two observed fractions: the latent times after
// 25 NewGibbs sweeps, the StEM rates, and the Posterior and
// DiagnosePosterior means. Any refactor of the sampler, its construction or
// its option plumbing must reproduce these hashes exactly.
func TestSequentialGibbsGolden(t *testing.T) {
	hashFloats := func(xss ...[]float64) uint64 {
		h := fnv.New64a()
		var b [8]byte
		for _, xs := range xss {
			for _, x := range xs {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
				h.Write(b[:])
			}
		}
		return h.Sum64()
	}
	net := must(qnet.PaperSynthetic(10, 5, [3]int{1, 2, 4}))
	params := must(NewParams(net.ServiceRates()))
	type golden struct {
		frac                    float64
		sweep, stem, post, diag uint64
	}
	want := []golden{
		{0.1, 0xe38e78aca56a73b3, 0x5b48f99f796e1bd5, 0x603fc90014233ea5, 0x742e2a4524b6ad98},
		{0.5, 0x4269e792e553cb78, 0xd92a8141d4cfef2, 0x91417c255257e6ba, 0x236ccd0d4620fba8},
	}
	for _, g := range want {
		seed := uint64(900 + int(g.frac*100))

		working, _, _ := simulateObserved(t, net, 300, g.frac, seed)
		if err := (OrderInitializer{}).Initialize(working, params); err != nil {
			t.Fatal(err)
		}
		gs := must(NewGibbs(working, params, xrand.New(seed)))
		for sweep := 0; sweep < 25; sweep++ {
			gs.Sweep()
		}
		if got := hashFloats(working.Arr, working.Dep); got != g.sweep {
			t.Errorf("frac %v: sweep hash %#x, want %#x", g.frac, got, g.sweep)
		}

		working, _, _ = simulateObserved(t, net, 300, g.frac, seed)
		res := must(StEM(working, xrand.New(seed+1), EMOptions{Iterations: 60}))
		if got := hashFloats(res.Params.Rates, res.Last.Rates); got != g.stem {
			t.Errorf("frac %v: StEM hash %#x, want %#x", g.frac, got, g.stem)
		}
		sum := must(Posterior(working, res.Params, xrand.New(seed+2), PosteriorOptions{Sweeps: 30}))
		if got := hashFloats(sum.MeanService, sum.MeanWait); got != g.post {
			t.Errorf("frac %v: Posterior hash %#x, want %#x", g.frac, got, g.post)
		}
		d := must(DiagnosePosterior(working, res.Params, xrand.New(seed+3), DiagnosticsOptions{Chains: 3, Sweeps: 40}))
		if got := hashFloats(d.MeanWait, d.WaitLo, d.WaitHi); got != g.diag {
			t.Errorf("frac %v: DiagnosePosterior hash %#x, want %#x", g.frac, got, g.diag)
		}
	}
}
