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
	// Scratch, when non-nil, donates the solver's reusable buffers
	// (constraint graph, topological order, move lists, rate vectors) so a
	// steady-state caller pays no per-solve allocations. The fix point is
	// identical with or without a scratch.
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
// GibbsScratch: the CSR constraint graph, Kahn buffers, the feasibility
// envelope, move lists, and rate vectors. All buffers grow to the largest
// trace seen and are reused in place, so repeated solves perform no
// steady-state allocations. A scratch serializes the solves built from it;
// never share one between concurrent solves. The zero value is ready to use.
type MeanFieldScratch struct {
	// Constraint graph in CSR form: outFlat[outOff[u]:outOff[u+1]] are the
	// successors of node u (every edge u → v encodes d_u ≤ d_v).
	outOff  []int32
	outFlat []int32
	indeg   []int32
	cursor  []int32
	stack   []int32
	topo    []int32
	pinned  []bool

	// Feasible-construction buffers (see OrderInitializer for the scheme).
	ub       []float64
	lob      []float64
	assigned []float64
	caps     []float64

	// Deterministic coordinate-pass move lists.
	arrMoves []int32
	depMoves []int32

	// Rate iterates and the observed-response accumulators of the default
	// initial-rate estimate.
	rates     []float64
	prevRates []float64
	respSum   []float64
	respCnt   []int32
}

// resizeBools returns b with length n (contents unspecified), reusing its
// backing array when capacity allows.
func resizeBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	return b[:n]
}

// MeanFieldEstimate runs the fixed-point solve and returns freshly
// allocated rate estimates and a posterior-shaped summary (the allocating
// convenience over MeanFieldInto, as Posterior is over PosteriorInto).
func MeanFieldEstimate(es *trace.EventSet, opts MeanFieldOptions) (Params, *PosteriorSummary, error) {
	var sum PosteriorSummary
	var params Params
	if _, err := MeanFieldInto(&sum, &params, es, opts); err != nil {
		return Params{}, nil, err
	}
	return params, &sum, nil
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

	if err := sc.buildGraph(es); err != nil {
		return MeanFieldStats{}, err
	}
	sc.initialRates(es, opts.InitialParams)
	if err := sc.feasibleInit(es, sc.rates); err != nil {
		return MeanFieldStats{}, err
	}
	sc.buildMoves(es)

	var stats MeanFieldStats
	for iter := 1; iter <= opts.MaxIters; iter++ {
		// Alternating deterministic coordinate passes, mirroring the Gibbs
		// scan-order alternation: a backward pass propagates contractions of
		// late times through coupled chains within one pass.
		meanFieldPass(es, sc.rates, sc.arrMoves, sc.depMoves, iter%2 == 0)
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
// Constraint graph + feasible construction, allocation-free.
//
// The one builder of the difference-constraint graph, shared with
// OrderInitializer and LPInitializer: CSR adjacency and grow-only buffers
// are what let a reused scratch solve with zero steady-state allocations,
// and the observation-only construction is what makes the fix point a
// function of the observed data alone (incoming latent values are never
// read).

// graphEdges enumerates the difference-constraint edges of event i:
// d_{π(i)} ≤ d_i (service after arrival), d_{ρ(i)} ≤ d_i (FIFO departure
// order), and the arrival order d_{π(ρ(i))} ≤ d_{π(i)}.
func graphEdges(es *trace.EventSet, i int, emit func(u, v int)) {
	e := &es.Events[i]
	if e.PrevT != trace.None {
		emit(e.PrevT, i)
	}
	if e.PrevQ != trace.None {
		if e.PrevQ != i {
			emit(e.PrevQ, i)
		}
		pu := es.Events[e.PrevQ].PrevT
		if pu != trace.None && e.PrevT != trace.None && pu != e.PrevT {
			emit(pu, e.PrevT)
		}
	}
}

// buildGraph constructs the CSR constraint graph, its topological order,
// and the pinned flags into the scratch, returning an error on a cyclic
// constraint set (impossible for traces from a real FIFO execution).
func (sc *MeanFieldScratch) buildGraph(es *trace.EventSet) error {
	n := len(es.Events)
	sc.outOff = resizeI32(sc.outOff, n+1)
	sc.cursor = zeroI32(sc.cursor, n)
	sc.indeg = zeroI32(sc.indeg, n)
	sc.pinned = resizeBools(sc.pinned, n)
	for i := 0; i < n; i++ {
		sc.pinned[i] = pinnedDepart(es, i)
		graphEdges(es, i, func(u, v int) {
			sc.cursor[u]++
			sc.indeg[v]++
		})
	}
	sc.outOff[0] = 0
	for i := 0; i < n; i++ {
		sc.outOff[i+1] = sc.outOff[i] + sc.cursor[i]
	}
	sc.outFlat = resizeI32(sc.outFlat, int(sc.outOff[n]))
	copy(sc.cursor, sc.outOff[:n])
	for i := 0; i < n; i++ {
		graphEdges(es, i, func(u, v int) {
			sc.outFlat[sc.cursor[u]] = int32(v)
			sc.cursor[u]++
		})
	}
	// Kahn's algorithm (LIFO, seeded in reverse index order so low-indexed
	// roots pop first); consumes indeg.
	sc.topo = resizeI32(sc.topo, n)[:0]
	sc.stack = resizeI32(sc.stack, n)[:0]
	for i := n - 1; i >= 0; i-- {
		if sc.indeg[i] == 0 {
			sc.stack = append(sc.stack, int32(i))
		}
	}
	for len(sc.stack) > 0 {
		u := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		sc.topo = append(sc.topo, u)
		for k := sc.outOff[u]; k < sc.outOff[u+1]; k++ {
			v := sc.outFlat[k]
			sc.indeg[v]--
			if sc.indeg[v] == 0 {
				sc.stack = append(sc.stack, v)
			}
		}
	}
	if len(sc.topo) != n {
		return fmt.Errorf("core: event constraint graph has a cycle (%d of %d ordered)", len(sc.topo), n)
	}
	return nil
}

// observedDepart returns event i's observation-fixed departure value (only
// meaningful when pinnedDepart holds): the next event's observed arrival,
// or the final event's observed departure.
func observedDepart(es *trace.EventSet, i int) float64 {
	if next := es.Events[i].NextT; next != trace.None {
		return es.Arr[next]
	}
	return es.Dep[i]
}

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
// half the slack to the pinned upper envelope. It needs buildGraph first.
// Incoming latent values are never read, so the construction — and
// therefore the fix point — depends only on the observations and rates.
// Every assignment is a function of the event's graph neighbours alone,
// so the result does not depend on which topological order buildGraph
// picked.
func (sc *MeanFieldScratch) feasibleInit(es *trace.EventSet, rates []float64) error {
	n := len(es.Events)
	// Upper envelope: per event, the tightest pinned departure downstream.
	sc.ub = resizeFloats(sc.ub, n)
	for i := 0; i < n; i++ {
		if sc.pinned[i] {
			sc.ub[i] = observedDepart(es, i)
		} else {
			sc.ub[i] = math.Inf(1)
		}
	}
	for t := n - 1; t >= 0; t-- {
		u := sc.topo[t]
		for k := sc.outOff[u]; k < sc.outOff[u+1]; k++ {
			if v := sc.outFlat[k]; sc.ub[v] < sc.ub[u] {
				sc.ub[u] = sc.ub[v]
			}
		}
	}
	// Per-queue compact scale: the latest pinned departure over the queue's
	// event count bounds the per-event target, so the initial state stays
	// within the observed horizon (see OrderInitializer).
	var span float64
	anyPinned := false
	for i := 0; i < n; i++ {
		if !sc.pinned[i] {
			continue
		}
		if d := observedDepart(es, i); d > span {
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
	// Topological assignment with running lower bounds.
	sc.lob = resizeFloats(sc.lob, n)
	sc.assigned = resizeFloats(sc.assigned, n)
	for _, i32 := range sc.topo {
		i := int(i32)
		e := &es.Events[i]
		var d float64
		if sc.pinned[i] {
			d = observedDepart(es, i)
			if d < sc.lob[i]-1e-6 {
				return fmt.Errorf("core: observed departure %v of event %d below feasible bound %v", d, i, sc.lob[i])
			}
			d = math.Max(d, sc.lob[i])
		} else {
			target := math.Min(1/rates[e.Queue], sc.caps[e.Queue])
			d = sc.lob[i] + target
			if ub := sc.ub[i]; !math.IsInf(ub, 1) {
				room := ub - sc.lob[i]
				if room < 0 {
					return fmt.Errorf("core: infeasible bounds for event %d: lo=%v > ub=%v", i, sc.lob[i], ub)
				}
				if d > sc.lob[i]+room/2 {
					d = sc.lob[i] + room/2
				}
			}
		}
		sc.assigned[i] = d
		for k := sc.outOff[i]; k < sc.outOff[i+1]; k++ {
			if v := sc.outFlat[k]; d > sc.lob[v] {
				sc.lob[v] = d
			}
		}
	}
	for _, i32 := range sc.topo {
		if i := int(i32); !sc.pinned[i] {
			applyDeparture(es, i, sc.assigned[i])
		}
	}
	return es.Validate(1e-6)
}

// buildMoves fills the deterministic coordinate-pass move lists, matching
// the Gibbs move enumeration (latent arrivals; final latent departures).
func (sc *MeanFieldScratch) buildMoves(es *trace.EventSet) {
	n := len(es.Events)
	sc.arrMoves = resizeI32(sc.arrMoves, n)[:0]
	sc.depMoves = resizeI32(sc.depMoves, n)[:0]
	for i := range es.Events {
		e := &es.Events[i]
		if !e.Initial() && !e.ObsArrival {
			sc.arrMoves = append(sc.arrMoves, int32(i))
		}
		if e.Final() && !e.ObsDepart {
			sc.depMoves = append(sc.depMoves, int32(i))
		}
	}
}

// mleInto replaces rates in place with the complete-data MLE of the current
// (imputed) event times — MLE without its allocation; queues with no events
// keep their previous rate.
func mleInto(rates []float64, es *trace.EventSet) {
	for q, ids := range es.ByQueue {
		if len(ids) == 0 {
			continue
		}
		var total float64
		for _, id := range ids {
			total += es.ServiceTime(id)
		}
		if total <= 0 {
			rates[q] = rateCeil
			continue
		}
		rates[q] = math.Min(math.Max(float64(len(ids))/total, rateFloor), rateCeil)
	}
}

// meanFieldPass runs one deterministic coordinate pass: every latent
// arrival and final departure is replaced by the mean of its full
// conditional, in the same alternating order as Gibbs.Sweep.
func meanFieldPass(es *trace.EventSet, rates []float64, arr, dep []int32, backward bool) {
	if !backward {
		for _, i := range arr {
			meanFieldArrival(es, rates, int(i))
		}
		for _, i := range dep {
			meanFieldFinalDeparture(es, rates, int(i))
		}
		return
	}
	for k := len(dep) - 1; k >= 0; k-- {
		meanFieldFinalDeparture(es, rates, int(dep[k]))
	}
	for k := len(arr) - 1; k >= 0; k-- {
		meanFieldArrival(es, rates, int(arr[k]))
	}
}

// meanFieldArrival sets a_e to the mean of the same full conditional
// resampleArrival draws from (identical bounds, slopes, and degenerate
// skip; see that function for the derivation). Conditional *means* rather
// than modes: the modes of piecewise-exponential conditionals sit on
// interval boundaries, which collapses the state onto its constraints,
// while the mean stays strictly interior and keeps the state feasible.
func meanFieldArrival(es *trace.EventSet, rates []float64, i int) {
	e := &es.Events[i]
	p := e.PrevT
	pe := &es.Events[p]
	rateE := rates[e.Queue]
	rateP := rates[pe.Queue]

	lo := es.Arr[p]
	if pe.PrevQ != trace.None {
		if d := es.Dep[pe.PrevQ]; d > lo {
			lo = d
		}
	}
	if e.PrevQ != trace.None && e.PrevQ != p {
		if a := es.Arr[e.PrevQ]; a > lo {
			lo = a
		}
	}
	hi := es.Dep[i]
	if e.NextQ != trace.None {
		if a := es.Arr[e.NextQ]; a < hi {
			hi = a
		}
	}
	pn := pe.NextQ
	if pn == i {
		pn = trace.None
	}
	if pn != trace.None {
		if d := es.Dep[pn]; d < hi {
			hi = d
		}
	}
	if !(lo < hi) {
		return // degenerate interval (ties); keep the current value
	}

	var c condSpec
	switch {
	case e.PrevQ == p:
		c.reset(lo, hi, 0)
	default:
		c.reset(lo, hi, -rateP)
		if e.PrevQ == trace.None {
			c.baseSlope += rateE
		} else {
			c.addTerm(es.Dep[e.PrevQ], rateE)
		}
		if pn != trace.None {
			c.addTerm(es.Arr[pn], rateP)
		}
	}
	a := c.mean()
	if a < lo {
		a = lo
	}
	if a > hi {
		a = hi
	}
	es.SetArrival(i, a)
}

// meanFieldFinalDeparture sets a final event's departure to the mean of the
// conditional resampleFinalDeparture draws from.
func meanFieldFinalDeparture(es *trace.EventSet, rates []float64, i int) {
	e := &es.Events[i]
	rateE := rates[e.Queue]

	lo := es.ServiceStart(i)
	hi := math.Inf(1)
	if e.NextQ != trace.None {
		hi = es.Dep[e.NextQ]
	}
	if !(lo < hi) {
		return
	}
	var c condSpec
	c.reset(lo, hi, -rateE)
	if e.NextQ != trace.None {
		c.addTerm(es.Arr[e.NextQ], rateE)
	}
	d := c.mean()
	if d < lo {
		d = lo
	}
	if !math.IsInf(hi, 1) && d > hi {
		d = hi
	}
	es.SetFinalDepart(i, d)
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

// ---------------------------------------------------------------------------
// Conditional means of the piecewise log-linear conditionals.

// mean returns the mean of the normalized density exp(f) described by the
// spec — the deterministic counterpart of sample: the same piece
// construction and log-domain mass anchoring, with each piece contributing
// its truncated-exponential mean instead of a draw. Requires lo < hi and,
// when hi is +Inf, a negative final slope (both guaranteed by the move
// constructions).
func (c *condSpec) mean() float64 {
	if c.nBreaks == 0 {
		// Single piece — the common case; no log-domain machinery needed.
		return c.lo + truncExpMean(c.baseSlope, c.hi-c.lo)
	}
	var edges [4]float64
	var slopes [3]float64
	np := 1
	edges[0] = c.lo
	slope := c.baseSlope
	slopes[0] = slope
	for b := 0; b < c.nBreaks; b++ {
		edges[np] = c.breakAt[b]
		slope += c.breakAdd[b]
		slopes[np] = slope
		np++
	}
	edges[np] = c.hi

	var logZ [3]float64
	f := 0.0
	maxLZ := math.Inf(-1)
	for i := 0; i < np; i++ {
		w := edges[i+1] - edges[i]
		logZ[i] = f + logIntExp(slopes[i], w)
		if !math.IsInf(w, 1) {
			f += slopes[i] * w
		}
		if logZ[i] > maxLZ {
			maxLZ = logZ[i]
		}
	}
	var total, acc float64
	for i := 0; i < np; i++ {
		wt := math.Exp(logZ[i] - maxLZ)
		if wt == 0 {
			continue // zero mass; its (possibly infinite-support) mean is moot
		}
		acc += wt * (edges[i] + truncExpMean(slopes[i], edges[i+1]-edges[i]))
		total += wt
	}
	return acc / total
}

// truncExpMean returns the mean of the density ∝ exp(m·x) on (0, w):
// w/(1−e^{−mw}) − 1/m, with the limits w/2 as mw → 0 and −1/m for w = +Inf
// (m < 0). The closed form cancels catastrophically for small |mw| (both
// terms ≈ 1/m), so that regime uses the series w/2·(1 + mw/6) + O((mw)²w).
func truncExpMean(m, w float64) float64 {
	if math.IsInf(w, 1) {
		return -1 / m
	}
	mw := m * w
	if math.Abs(mw) < 1e-4 {
		return w * 0.5 * (1 + mw/6)
	}
	return w/(-math.Expm1(-mw)) - 1/m
}
