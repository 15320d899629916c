package core

import (
	"math"
	"testing"

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
func TestWarmStepBatchingInvariant(t *testing.T) {
	const nq = 3
	cfg := WarmConfig{NumQueues: nq, EMIters: 40, PostSweeps: 20}
	gen := newSlideGen(3, nq, 2.0, 3.0, 0.5)
	tasks := gen.take(50)

	full := NewWarmEstimator(cfg)
	warmFill(t, full, tasks)
	full.BeginEpoch()
	rngF := xrand.New(8)
	if ran := full.Step(rngF, 0); ran != 60 {
		t.Fatalf("full pass ran %d sweeps, want 60", ran)
	}
	if !full.Done() {
		t.Fatal("full pass not done")
	}

	batched := NewWarmEstimator(cfg)
	warmFill(t, batched, tasks)
	batched.BeginEpoch()
	rngB := xrand.New(8)
	steps := 0
	for !batched.Done() {
		ran := batched.Step(rngB, 7)
		if ran == 0 {
			t.Fatal("Step made no progress")
		}
		steps++
	}
	if steps != 9 { // ceil(60/7)
		t.Fatalf("batched pass took %d steps, want 9", steps)
	}

	var sumF, sumB PosteriorSummary
	full.SnapshotInto(&sumF)
	batched.SnapshotInto(&sumB)
	if sumF.Sweeps != sumB.Sweeps {
		t.Fatalf("kept sweeps differ: %d vs %d", sumF.Sweeps, sumB.Sweeps)
	}
	for q := 0; q < nq; q++ {
		if sumF.MeanService[q] != sumB.MeanService[q] {
			t.Fatalf("queue %d mean service %v vs %v", q, sumF.MeanService[q], sumB.MeanService[q])
		}
		if sumF.MeanWait[q] != sumB.MeanWait[q] && !(math.IsNaN(sumF.MeanWait[q]) && math.IsNaN(sumB.MeanWait[q])) {
			t.Fatalf("queue %d mean wait %v vs %v", q, sumF.MeanWait[q], sumB.MeanWait[q])
		}
		if len(sumF.WaitChain[q]) != len(sumB.WaitChain[q]) {
			t.Fatalf("queue %d wait chain length %d vs %d", q, len(sumF.WaitChain[q]), len(sumB.WaitChain[q]))
		}
	}
	rF := full.RatesInto(nil)
	rB := batched.RatesInto(nil)
	for q := range rF {
		if rF[q] != rB[q] {
			t.Fatalf("queue %d rate %v vs %v", q, rF[q], rB[q])
		}
	}
}

// TestWarmIncrementalMatchesColdClone is the satellite regression test:
// after slides, a *cold* estimator constructed over a clone of the warm
// window's retained state produces bit-identical estimates under the same
// RNG — the incremental path loses nothing against a cold pass.
func TestWarmIncrementalMatchesColdClone(t *testing.T) {
	const nq = 3
	cfg := WarmConfig{NumQueues: nq, EMIters: 30, PostSweeps: 15}
	gen := newSlideGen(19, nq, 2.0, 3.0, 0.5)
	warmup := gen.take(60)
	stream := gen.take(25)

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
	warm.BeginEpoch()

	cold := NewWarmEstimator(cfg)
	cold.win = warm.win.Clone()
	cold.rates = warm.RatesInto(nil)
	cold.haveRates = true
	cold.BeginEpoch()

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

	// The windowed posterior continuation is part of the contract too.
	lo, hi := warm.Window().Span()
	ww, err := warm.PosteriorWindows(xrand.New(9), 10, NoBurnIn, lo, hi, 4)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := cold.PosteriorWindows(xrand.New(9), 10, NoBurnIn, lo, hi, 4)
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
}

// TestWarmAnytimeSnapshots: estimates must be available (and sane) after
// every partial Step, improving monotonically in kept-sweep count.
func TestWarmAnytimeSnapshots(t *testing.T) {
	const nq = 3
	cfg := WarmConfig{NumQueues: nq, EMIters: 20, PostSweeps: 20, PostBurnIn: 4}
	gen := newSlideGen(27, nq, 2.0, 3.0, 0.7)
	we := NewWarmEstimator(cfg)
	warmFill(t, we, gen.take(40))
	we.BeginEpoch()
	rng := xrand.New(2)
	var sum PosteriorSummary
	lastKept := -1
	for !we.Done() {
		we.Step(rng, 3)
		we.SnapshotInto(&sum)
		for q := 1; q < nq; q++ {
			if math.IsNaN(sum.MeanService[q]) || sum.MeanService[q] <= 0 {
				t.Fatalf("snapshot at %d sweeps: queue %d mean service %v", we.EpochSweeps(), q, sum.MeanService[q])
			}
		}
		if sum.Sweeps < lastKept {
			t.Fatalf("kept sweeps went backward: %d -> %d", lastKept, sum.Sweeps)
		}
		lastKept = sum.Sweeps
	}
	if lastKept != cfg.PostSweeps-cfg.PostBurnIn {
		t.Fatalf("final kept sweeps %d, want %d", lastKept, cfg.PostSweeps-cfg.PostBurnIn)
	}
	if got := we.EpochSweeps(); got != 40 {
		t.Fatalf("epoch sweeps %d, want 40", got)
	}
}

// TestWarmResetLifecycle covers the stream-gap story: Reset drops the
// estimator's window and parameters, and the engine stays usable after it.
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

	// The stream gap: Reset drops latents, stats and parameters.
	we.Reset()
	if we.Window().LiveTasks() != 0 || we.Window().LiveEvents() != 0 {
		t.Fatal("Reset kept window contents")
	}
	if we.EpochSweeps() != 0 {
		t.Fatal("Reset kept epoch progress")
	}
	post := we.RatesInto(nil)
	for q := range post {
		if post[q] != 1 {
			t.Fatalf("queue %d rate %v after Reset, want cold 1", q, post[q])
		}
	}
	_ = preRates

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
