package core

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// Mean-field fast path (DESIGN.md §18). The Gibbs sampler replaces each
// latent time with a *draw* from its piecewise log-linear full conditional;
// the mean-field solver replaces it with that conditional's *mean* and
// iterates the deterministic coordinate passes to a fixed point, updating
// the rates by MLE between passes (the variational/mean-field approximation
// of Perez & Casale, arXiv:1807.08673, specialized to the paper's
// exponential network). No chains, no burn-in, no RNG: the result is a
// deterministic O(events)-per-pass function of the observed data alone, so
// it is bit-identical across runs and GOMAXPROCS settings, and a solve
// with a reused MeanFieldScratch performs no steady-state allocations.
//
// It serves two roles: the daemon's instant first estimate for cold or
// recovered streams (backend "meanfield", refined by Gibbs in the
// background), and a warm start — MeanFieldInitializer leaves the event
// set at the fix point, which is closer to the posterior mode than the
// LP/order constructions and cuts StEM burn-in.

// Default fixed-point schedule: a handful of deterministic passes reaches
// the rate tolerance on typical windows; the cap keeps the worst case a
// small constant multiple of one Gibbs sweep.
const (
	defaultMeanFieldIters = 8
	defaultMeanFieldTol   = 1e-3
)

// MeanFieldOptions configures the fixed-point solve.
type MeanFieldOptions struct {
	// MaxIters caps the number of fixed-point iterations (one deterministic
	// coordinate pass + one MLE rate update each; default 8).
	MaxIters int
	// Tol is the convergence tolerance on the maximum relative rate change
	// between iterations (default 1e-3). The solve stops early once every
	// rate moved less than Tol; precision beyond that is spurious — the
	// mean-field approximation's own bias dominates.
	Tol float64
	// InitialParams optionally fixes the starting rates; when nil they are
	// estimated from the observed data (per-queue mean pinned response
	// times, λ from the observed entry span).
	InitialParams *Params
	// Scratch, when non-nil, donates the solver's reusable buffers (the
	// feasibility pass's topological order and envelopes, move lists, rate
	// vectors) so a steady-state caller pays no per-solve allocations. The
	// fix point is identical with or without a scratch.
	Scratch *MeanFieldScratch
}

func (o MeanFieldOptions) withDefaults() MeanFieldOptions {
	if o.MaxIters == 0 {
		o.MaxIters = defaultMeanFieldIters
	}
	if o.Tol == 0 {
		o.Tol = defaultMeanFieldTol
	}
	return o
}

// MeanFieldStats reports how a solve went.
type MeanFieldStats struct {
	// Iterations actually run (≥ 1 whenever the trace has events).
	Iterations int
	// Converged is true when the rate tolerance was reached before the
	// iteration cap; false means the estimate is the cap's last iterate —
	// still feasible and usable, just short of the fix point.
	Converged bool
	// MaxDelta is the final iteration's maximum relative rate change.
	MaxDelta float64
}

// MeanFieldScratch is the reusable solver state, the mean-field analogue of
// GibbsScratch: the feasibility pass over the constraint graph (its Kahn
// order, pinned flags and envelopes; the graph itself is read off the
// event links), the per-queue target caps, move lists, and rate vectors.
// All buffers grow to the largest trace seen and are reused in place, so
// repeated solves perform no steady-state allocations. A scratch
// serializes the solves built from it; never share one between concurrent
// solves. The zero value is ready to use.
type MeanFieldScratch struct {
	feasPass
	caps []float64

	// Deterministic coordinate-pass move lists.
	moves latentMoves

	// Rate iterates and the observed-response accumulators of the default
	// initial-rate estimate.
	rates     []float64
	prevRates []float64
	respSum   []float64
	respCnt   []int32
}

// MeanFieldInto is the zero-steady-state-allocation solve: it masks nothing
// and mutates es in place (feasible construction, then deterministic
// coordinate passes), fills sum with per-queue mean service and waiting
// times in the same shape PosteriorInto produces (NaN means and nil
// WaitChain slots for empty queues; Sweeps is 0 — no Gibbs sweeps ran), and
// resizes params.Rates in place with the final rate iterates. sum and
// params may each be nil to skip that output (MeanFieldInitializer passes
// both as nil). Like PosteriorInto, previous contents are overwritten and
// slices handed out earlier must not be retained.
//
// Callers estimating a window cut from a longer trace should
// ShiftTowardZero first (as StreamingEstimate does before StEM) so λ is not
// diluted by the window's offset.
func MeanFieldInto(sum *PosteriorSummary, params *Params, es *trace.EventSet, opts MeanFieldOptions) (MeanFieldStats, error) {
	opts = opts.withDefaults()
	sc := opts.Scratch
	if sc == nil {
		sc = new(MeanFieldScratch)
	}
	nq := es.NumQueues
	if opts.InitialParams != nil && len(opts.InitialParams.Rates) != nq {
		return MeanFieldStats{}, fmt.Errorf("core: %d initial rates for %d queues", len(opts.InitialParams.Rates), nq)
	}

	if err := sc.order(es, nil, nil); err != nil {
		return MeanFieldStats{}, err
	}
	sc.initialRates(es, opts.InitialParams)
	if err := sc.feasibleInit(es, sc.rates); err != nil {
		return MeanFieldStats{}, err
	}
	sc.moves.build(es)

	var stats MeanFieldStats
	for iter := 1; iter <= opts.MaxIters; iter++ {
		// Alternating deterministic coordinate passes, mirroring the Gibbs
		// scan-order alternation: a backward pass propagates contractions of
		// late times through coupled chains within one pass.
		meanFieldPass(es, sc.rates, &sc.moves, iter%2 == 0)
		copy(sc.prevRates, sc.rates)
		mleInto(sc.rates, es)
		maxRel := 0.0
		for q := range sc.rates {
			if d := math.Abs(sc.rates[q]-sc.prevRates[q]) / sc.prevRates[q]; d > maxRel {
				maxRel = d
			}
		}
		stats.Iterations = iter
		stats.MaxDelta = maxRel
		if maxRel <= opts.Tol {
			stats.Converged = true
			break
		}
	}
	if err := es.Validate(1e-6); err != nil {
		return stats, fmt.Errorf("core: mean-field fix point infeasible: %w", err)
	}

	if params != nil {
		params.Rates = resizeFloats(params.Rates, nq)
		copy(params.Rates, sc.rates)
	}
	if sum != nil {
		fillMeanFieldSummary(sum, es)
	}
	return stats, nil
}

// MeanFieldInitializer satisfies Initializer by leaving the event set at
// the mean-field fix point: a feasible state at (approximately) the
// coordinate-wise conditional mean, typically much closer to the posterior
// mode than the LP/order constructions, so StEM/Gibbs chains started from
// it need less burn-in. targetRates seeds the fixed-point rate iteration
// (the solved rates are internal — the Initializer contract only writes
// latent times).
type MeanFieldInitializer struct {
	// MaxIters and Tol override the solve schedule (0 = the MeanFieldOptions
	// defaults).
	MaxIters int
	Tol      float64
	// Scratch, when non-nil, donates the solver's reusable buffers across
	// Initialize calls.
	Scratch *MeanFieldScratch
}

// Initialize implements Initializer.
func (ini MeanFieldInitializer) Initialize(es *trace.EventSet, targetRates Params) error {
	if len(targetRates.Rates) != es.NumQueues {
		return fmt.Errorf("core: %d target rates for %d queues", len(targetRates.Rates), es.NumQueues)
	}
	_, err := MeanFieldInto(nil, nil, es, MeanFieldOptions{
		MaxIters:      ini.MaxIters,
		Tol:           ini.Tol,
		InitialParams: &targetRates,
		Scratch:       ini.Scratch,
	})
	return err
}

// ---------------------------------------------------------------------------
// Feasible construction, allocation-free.
//
// The construction runs the one feasibility pass (feasPass, init.go) that
// OrderInitializer, LPInitializer and the sliding window's repair share.
// Grow-only buffers are what let a reused scratch solve with zero
// steady-state allocations, and the observation-only construction is what
// makes the fix point a function of the observed data alone (incoming
// latent values are never read).

// initialRates fills sc.rates with the starting rate vector: the caller's
// initial params when given, else a deterministic allocation-free analogue
// of InitialRates (per-queue *mean* pinned response instead of the median —
// no sort buffer needed — with the same global fallback, and λ from the
// observed entry span). All rates are clamped to [rateFloor, rateCeil].
func (sc *MeanFieldScratch) initialRates(es *trace.EventSet, initial *Params) {
	nq := es.NumQueues
	sc.rates = resizeFloats(sc.rates, nq)
	sc.prevRates = resizeFloats(sc.prevRates, nq)
	if initial != nil {
		copy(sc.rates, initial.Rates)
		for q := range sc.rates {
			sc.rates[q] = math.Min(math.Max(sc.rates[q], rateFloor), rateCeil)
		}
		return
	}
	sc.respSum = resizeFloats(sc.respSum, nq)
	sc.respCnt = zeroI32(sc.respCnt, nq)
	for i := range es.Events {
		e := &es.Events[i]
		if e.Initial() || !e.ObsArrival || !pinnedDepart(es, i) {
			continue
		}
		if resp := es.Dep[i] - es.Arr[i]; resp > 0 {
			sc.respSum[e.Queue] += resp
			sc.respCnt[e.Queue]++
		}
	}
	var globalSum float64
	var globalCnt int32
	for q := 1; q < nq; q++ {
		globalSum += sc.respSum[q]
		globalCnt += sc.respCnt[q]
	}
	globalScale := 1.0
	if globalCnt > 0 {
		globalScale = globalSum / float64(globalCnt)
	}
	for q := 1; q < nq; q++ {
		scale := globalScale
		if sc.respCnt[q] > 0 {
			scale = sc.respSum[q] / float64(sc.respCnt[q])
		}
		sc.rates[q] = 1 / scale
	}
	sc.rates[0] = observedArrivalRate(es)
	for q := range sc.rates {
		sc.rates[q] = math.Min(math.Max(sc.rates[q], rateFloor), rateCeil)
	}
}

// feasibleInit assigns every unobserved time a feasible value from the
// observed data alone — OrderInitializer's scheme: topological assignment
// toward the 1/rates[q] targets, capped by the per-queue compact scale and
// half the slack to the pinned upper envelope. It needs
// order(es, nil, nil) first. Incoming latent values are never read, so the construction — and
// therefore the fix point — depends only on the observations and rates.
func (sc *MeanFieldScratch) feasibleInit(es *trace.EventSet, rates []float64) error {
	sc.envelope(es)
	// Per-queue compact scale: the latest pinned departure over the queue's
	// event count bounds the per-event target, so the initial state stays
	// within the observed horizon (see OrderInitializer).
	var span float64
	anyPinned := false
	for i := range es.Events {
		if !sc.pinned[i] {
			continue
		}
		if d := nodeDepart(es, i); d > span {
			span = d
		}
		anyPinned = true
	}
	sc.caps = resizeFloats(sc.caps, es.NumQueues)
	for q := range sc.caps {
		if !anyPinned || span <= 0 || len(es.ByQueue[q]) == 0 {
			sc.caps[q] = math.Inf(1)
			continue
		}
		sc.caps[q] = span / float64(len(es.ByQueue[q]))
	}
	if err := sc.settle(es, rates, sc.caps); err != nil {
		return err
	}
	sc.apply(es)
	return es.Validate(1e-6)
}

// meanFieldPass runs one deterministic coordinate pass: every latent
// arrival and final departure is replaced by the mean of its full
// conditional — the conditional resampleArrival and resampleFinalDeparture
// draw from, with the same degenerate skip — in the same alternating order
// as Gibbs.Sweep. Conditional *means* rather than modes: the modes of
// piecewise-exponential conditionals sit on interval boundaries, which
// collapses the state onto its constraints, while the mean stays strictly
// interior and keeps the state feasible.
func meanFieldPass(es *trace.EventSet, rates []float64, m *latentMoves, backward bool) {
	m.scan(backward, func(i int) {
		var c condSpec
		if arrivalCond(&c, es, rates, i) {
			es.SetArrival(i, c.clamp(c.mean()))
		}
	}, func(i int) {
		var c condSpec
		if finalDepartCond(&c, es, rates, i) {
			es.SetFinalDepart(i, c.clamp(c.mean()))
		}
	})
}

// fillMeanFieldSummary writes the fix point's per-queue mean service and
// waiting times into sum in PosteriorInto's shape: NaN means and nil
// WaitChain slots for empty queues, nil WaitChain slots everywhere else too
// (there is no chain — downstream ESS/R-hat diagnostics read "no data"),
// and Sweeps 0 (no Gibbs sweeps ran).
func fillMeanFieldSummary(sum *PosteriorSummary, es *trace.EventSet) {
	nq := es.NumQueues
	sum.MeanService = resizeFloats(sum.MeanService, nq)
	sum.MeanWait = resizeFloats(sum.MeanWait, nq)
	if cap(sum.WaitChain) < nq {
		sum.WaitChain = make([][]float64, nq)
	} else {
		sum.WaitChain = sum.WaitChain[:nq]
	}
	for q := 0; q < nq; q++ {
		sum.WaitChain[q] = nil
		ids := es.ByQueue[q]
		if len(ids) == 0 {
			sum.MeanService[q] = math.NaN()
			sum.MeanWait[q] = math.NaN()
			continue
		}
		var svc, wait float64
		for _, id := range ids {
			start := es.ServiceStart(id)
			svc += es.Dep[id] - start
			wait += start - es.Arr[id]
		}
		sum.MeanService[q] = svc / float64(len(ids))
		sum.MeanWait[q] = wait / float64(len(ids))
	}
	sum.Sweeps = 0
}
