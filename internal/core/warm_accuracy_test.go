package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/qnet"
	"repro/internal/xrand"
)

// scheduleProbe sizes one run of the warm-schedule accuracy probe: a
// window of the paper's three-tier network {1,2,4} (λ = 4, µ = 5) slides
// by a fixed number of tasks before every epoch, and each epoch's served
// rates are compared with a long cold StEM epoch on a clone of the same
// window.
type scheduleProbe struct {
	window, epochs, refIters int
	seeds                    []uint64
	fracs                    []float64
	slides                   []int
}

// probeCell is one (observed fraction, slide, seed) run: the sum of the
// squared relative service-rate errors over every epoch but the first
// (which is cold on both schedules), how many terms it has,
// the StEM+posterior sweeps of each epoch, and the infeasible slides that
// forced a rebuild.
type probeCell struct {
	frac       float64
	slide      int
	seed       uint64
	sqErr      float64
	terms      int
	sweeps     []int
	infeasible int
}

func (c probeCell) rms() float64 { return math.Sqrt(c.sqErr / float64(c.terms)) }

// run drives every cell with the daemon's default stream schedule
// (EMIters 300, PostSweeps 40). An infeasible slide is handled the way
// qserved's worker handles it: the task is left out and counted.
func (p scheduleProbe) run(t *testing.T) []probeCell {
	t.Helper()
	net := must(qnet.PaperSynthetic(4, 5, [3]int{1, 2, 4}))
	var cells []probeCell
	for _, frac := range p.fracs {
		for _, slide := range p.slides {
			for _, seed := range p.seeds {
				truth, _, _ := simulateObserved(t, net, p.window+p.epochs*slide, frac, seed)
				tasks := slideTasksOf(truth)
				nq := truth.NumQueues
				we := NewWarmEstimator(WarmConfig{NumQueues: nq, EMIters: 300, PostSweeps: 40})
				warmFill(t, we, tasks[:p.window])
				rng := xrand.New(seed + 1)
				cell := probeCell{frac: frac, slide: slide, seed: seed}
				hi := p.window
				for e := 0; e < p.epochs; e++ {
					if e > 0 {
						cell.infeasible += probeSlide(t, we, tasks[hi:hi+slide], p.window)
						hi += slide
					}
					var ref *WarmEstimator
					if e > 0 {
						ref = NewWarmEstimator(WarmConfig{NumQueues: nq, EMIters: p.refIters, PostSweeps: 1})
						ref.win = we.win.Clone()
					}
					we.BeginEpoch()
					cell.sweeps = append(cell.sweeps, we.Step(rng, 0))
					if ref == nil {
						continue
					}
					ref.BeginEpoch()
					ref.Step(xrand.New(seed*1000+uint64(e)), 0)
					got, want := we.RatesInto(nil), ref.RatesInto(nil)
					for q := 1; q < nq; q++ {
						d := (got[q] - want[q]) / want[q]
						cell.sqErr += d * d
						cell.terms++
					}
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells
}

// probeSlide appends tasks to the window, evicting the oldest past size,
// and returns how many it left out as infeasible.
func probeSlide(t *testing.T, we *WarmEstimator, tasks []SlideTask, size int) (infeasible int) {
	t.Helper()
	for _, task := range tasks {
		if err := we.Append(task); errors.Is(err, ErrInfeasibleSlide) {
			infeasible++
			continue
		} else if err != nil {
			t.Fatal(err)
		}
		for we.Window().LiveTasks() > size {
			we.EvictOldest()
		}
	}
	return infeasible
}

// pooledRMS is the rms relative rate error over every cell at one
// observed fraction.
func pooledRMS(cells []probeCell, frac float64) float64 {
	sq, n := 0.0, 0
	for _, c := range cells {
		if c.frac == frac {
			sq += c.sqErr
			n += c.terms
		}
	}
	return math.Sqrt(sq / float64(n))
}

// TestWarmScheduleAccuracy is the accuracy contract of the warm-epoch
// schedule: served service rates, against a 1200-iteration StEM epoch on
// a clone of the same window, must err no more than 15% beyond the cold
// schedule's (every epoch 300 StEM iterations, 150 of them burn-in),
// pooled over two seeds and 1- and 10-task slides of a 300-task window at
// each observed fraction.
//
// The cold schedule's pooled rms errors were measured once with this
// harness at commit 4712933, where every epoch ran it: 12.081% at 10%
// observed and 3.216% at 30%. Most of the 10% figure is the noise of the
// 1200-iteration reference itself. The two fractions run in parallel.
func TestWarmScheduleAccuracy(t *testing.T) {
	if raceEnabled {
		t.Skip("accuracy contract: skipped under -race")
	}
	coldRMS := map[float64]float64{0.1: 0.12081, 0.3: 0.03216}
	for _, frac := range []float64{0.1, 0.3} {
		t.Run(fmt.Sprintf("observed=%v", frac), func(t *testing.T) {
			t.Parallel()
			p := scheduleProbe{window: 300, epochs: 8, refIters: 1200,
				seeds: []uint64{5, 6}, fracs: []float64{frac}, slides: []int{1, 10}}
			cells := p.run(t)
			for _, c := range cells {
				t.Logf("slide %2d, seed %d: rms %.2f%%, sweeps %v, infeasible %d",
					c.slide, c.seed, 100*c.rms(), c.sweeps, c.infeasible)
			}
			got, bound := pooledRMS(cells, frac), 1.15*coldRMS[frac]
			t.Logf("pooled rms %.3f%% (cold schedule %.3f%%, bound %.3f%%)", 100*got, 100*coldRMS[frac], 100*bound)
			if got > bound {
				t.Errorf("pooled rms rate error %.3f%% exceeds %.3f%% (1.15× the cold schedule's %.3f%%)",
					100*got, 100*bound, 100*coldRMS[frac])
			}
		})
	}
}

// TestRebasedEpochAccuracy is the accuracy contract of the rebased epoch,
// the schedule a window rebuild runs since Reset keeps a finished StEM
// average: 30 iterations of burn-in from the kept rates instead of 150
// from the MLE of the rebuilt window. Per seed, an estimator runs a cold
// StEM phase over one 300-task window of the three-tier network {1,2,4}
// at λ = 4 and µ = µ_A, is Reset, and runs a rebased one over an
// independent window at µ = 5. The cold epoch that rebuilds ran before, a
// fresh estimator's StEM phase over the same window with the same RNG
// seed, runs beside it, and both are compared with a 1200-iteration StEM
// phase on that window. µ_A = 8 carries the rates from a different load.
// Pooled over 72 seeds
// (100–171), the rebased epoch's rms relative service-rate error must stay
// within 1.15× the cold epoch's, the bound of TestWarmScheduleAccuracy.
// The rebuilt window, and so the cold and reference phases, do not depend
// on µ_A and are run once per seed. The two fractions run in parallel.
func TestRebasedEpochAccuracy(t *testing.T) {
	if raceEnabled {
		t.Skip("accuracy contract: skipped under -race")
	}
	const window, iters, refIters = 300, 300, 1200
	muAs := []float64{5, 8}
	for _, frac := range []float64{0.1, 0.3} {
		t.Run(fmt.Sprintf("observed=%v", frac), func(t *testing.T) {
			t.Parallel()
			rebuilt := must(qnet.PaperSynthetic(4, 5, [3]int{1, 2, 4}))
			sqRebased := make([]float64, len(muAs))
			var sqCold, terms float64
			for seed := uint64(100); seed < 172; seed++ {
				after, _, _ := simulateObserved(t, rebuilt, window, frac, seed+10000)
				tasks, nq := slideTasksOf(after), after.NumQueues
				// stem runs the StEM phase of we's next epoch over tasks.
				stem := func(we *WarmEstimator, rng *xrand.RNG) []float64 {
					warmFill(t, we, tasks)
					we.BeginEpoch()
					we.Step(rng, we.EMIters())
					return we.RatesInto(nil)
				}
				want := stem(NewWarmEstimator(WarmConfig{NumQueues: nq, EMIters: refIters}), xrand.New(seed*1000+1))
				cold := stem(NewWarmEstimator(WarmConfig{NumQueues: nq, EMIters: iters}), xrand.New(seed*7+3))
				for q := 1; q < nq; q++ {
					c := (cold[q] - want[q]) / want[q]
					sqCold += c * c
					terms++
				}
				for i, muA := range muAs {
					first := must(qnet.PaperSynthetic(4, muA, [3]int{1, 2, 4}))
					before, _, _ := simulateObserved(t, first, window, frac, seed)
					we := NewWarmEstimator(WarmConfig{NumQueues: nq, EMIters: iters})
					warmFill(t, we, slideTasksOf(before))
					we.BeginEpoch()
					we.Step(xrand.New(seed+1), iters)
					we.Reset()
					got := stem(we, xrand.New(seed*7+3))
					if we.EMIters() != warmMinIters+iters/2 {
						t.Fatalf("seed %d: rebased epoch ran %d StEM iterations, want %d", seed, we.EMIters(), warmMinIters+iters/2)
					}
					for q := 1; q < nq; q++ {
						d := (got[q] - want[q]) / want[q]
						sqRebased[i] += d * d
					}
				}
			}
			for i, muA := range muAs {
				ratio := math.Sqrt(sqRebased[i] / sqCold)
				t.Logf("µ_A = %v: pooled rms %.2f%% rebased, %.2f%% cold (%.3f×)",
					muA, 100*math.Sqrt(sqRebased[i]/terms), 100*math.Sqrt(sqCold/terms), ratio)
				if ratio > 1.15 {
					t.Errorf("µ_A = %v: rebased epoch's pooled rms rate error is %.3f× the cold epoch's, want <= 1.15×", muA, ratio)
				}
			}
		})
	}
}

// TestFinalizeSnapshotAccuracy is the accuracy contract of the means an
// epoch publishes at the sweep that finalizes its StEM phase: per-queue
// means averaged over the StEM iterates on the rates' carried schedule
// (WarmEstimator.SnapshotInto), served before any posterior sweep. Per
// seed, a 500-task window of the paper's three-tier network {1,2,4}
// (λ = 4, µ = 5) runs a cold epoch and then five warm ones after 2- or
// 10-task slides, on the daemon's default schedule (EMIters 300,
// PostSweeps 40). Each warm epoch's carried mean waits at EMFinal and its
// posterior mean waits at the epoch's end are compared with the window's
// realized waits, read off a window that holds the same tasks at their
// true times. Pooled over seeds 1–6 and both slides, the carried means'
// rms relative wait error must stay within 1.10× the posterior means'.
// The tasks seed the latent state with their true times, as in the other
// probes, which flatters both estimates alike. The two fractions run in
// parallel.
func TestFinalizeSnapshotAccuracy(t *testing.T) {
	if raceEnabled {
		t.Skip("accuracy contract: skipped under -race")
	}
	const window, warmEpochs = 500, 5
	net := must(qnet.PaperSynthetic(4, 5, [3]int{1, 2, 4}))
	for _, frac := range []float64{0.1, 0.3} {
		t.Run(fmt.Sprintf("observed=%v", frac), func(t *testing.T) {
			t.Parallel()
			var sqCarried, sqPost, sqCarriedSvc, sqPostSvc float64
			terms, infeasible := 0, 0
			for _, slide := range []int{2, 10} {
				for seed := uint64(1); seed <= 6; seed++ {
					working, _, _ := simulateObserved(t, net, window+warmEpochs*slide, frac, seed)
					tasks, nq := slideTasksOf(working), working.NumQueues
					we := NewWarmEstimator(WarmConfig{NumQueues: nq, EMIters: 300, PostSweeps: 40})
					// truth holds the same tasks at their true times and
					// never sweeps.
					truth := NewSlidingWindow(nq)
					add := func(task SlideTask) {
						if err := we.Append(task); errors.Is(err, ErrInfeasibleSlide) {
							infeasible++
							return
						} else if err != nil {
							t.Fatal(err)
						}
						if err := truth.Append(task); err != nil {
							t.Fatal(err)
						}
						for we.Window().LiveTasks() > window {
							we.EvictOldest()
							truth.EvictOldest()
						}
					}
					for _, task := range tasks[:window] {
						add(task)
					}
					rng := xrand.New(seed + 1)
					var carried, post PosteriorSummary
					realSvc, realWait := make([]float64, nq), make([]float64, nq)
					for e := 0; e <= warmEpochs; e++ {
						if e > 0 {
							for _, task := range tasks[window+(e-1)*slide : window+e*slide] {
								add(task)
							}
						}
						we.BeginEpoch()
						we.Step(rng, we.EMIters())
						if !we.EMFinal() {
							t.Fatalf("seed %d epoch %d: StEM phase not final after %d sweeps", seed, e, we.EpochSweeps())
						}
						we.SnapshotInto(&carried)
						we.Step(rng, 0)
						we.SnapshotInto(&post)
						if e == 0 {
							continue
						}
						truth.QueueMeansInto(realSvc, realWait)
						for q := 1; q < nq; q++ {
							if truth.qCount[q] == 0 {
								continue
							}
							c, p := carried.MeanWait[q]/realWait[q]-1, post.MeanWait[q]/realWait[q]-1
							sqCarried += c * c
							sqPost += p * p
							c, p = carried.MeanService[q]/realSvc[q]-1, post.MeanService[q]/realSvc[q]-1
							sqCarriedSvc += c * c
							sqPostSvc += p * p
							terms++
						}
					}
				}
			}
			n := float64(terms)
			got, ref := math.Sqrt(sqCarried/n), math.Sqrt(sqPost/n)
			t.Logf("pooled rms wait error: carried StEM means %.2f%%, posterior means %.2f%% (%.3f×); service %.2f%% and %.2f%%; %d terms, %d infeasible",
				100*got, 100*ref, got/ref, 100*math.Sqrt(sqCarriedSvc/n), 100*math.Sqrt(sqPostSvc/n), terms, infeasible)
			if got > 1.10*ref {
				t.Errorf("carried StEM means' pooled rms wait error %.2f%% exceeds 1.10× the posterior means' %.2f%%", 100*got, 100*ref)
			}
		})
	}
}
