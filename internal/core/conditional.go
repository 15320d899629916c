package core

import (
	"math"

	"repro/internal/trace"
	"repro/internal/xrand"
)

// This file holds the one construction of the sampler's two full
// conditionals — a latent arrival's (paper Eq. 2, Fig. 3) and a task's
// final departure's — and the one enumeration and scan of the latent
// moves. Every kernel is built on them: the Gibbs resamplers (shared by
// Gibbs.Sweep and SlidingWindow.Sweep) draw from a conditional, the
// mean-field pass takes its mean, GeneralGibbs's MH moves use it as the
// independence proposal, and its slice moves use its support.

// condSpec is an allocation-free builder/sampler for the piecewise
// log-linear full conditionals of the Gibbs sampler. An arrival move has at
// most two interior breakpoints (the paper's A and B) and a departure move
// at most one, so fixed-size arrays suffice. internal/piecewise is the
// general reference implementation; tests assert the two agree.
type condSpec struct {
	lo, hi    float64 // support (hi may be +Inf)
	baseSlope float64
	nBreaks   int
	breakAt   [2]float64
	breakAdd  [2]float64 // slope increment when crossing breakAt upward
}

// reset initializes the spec to the interval (lo, hi) with the given base
// slope of the log density.
func (c *condSpec) reset(lo, hi, baseSlope float64) {
	c.lo, c.hi, c.baseSlope = lo, hi, baseSlope
	c.nBreaks = 0
}

// addTerm registers a log-density term whose slope increases by add for
// x > at. Points at or below lo fold into the base slope; points at or
// beyond hi are inert.
func (c *condSpec) addTerm(at, add float64) {
	if at <= c.lo {
		c.baseSlope += add
		return
	}
	if at >= c.hi {
		return
	}
	// Insert keeping breakAt sorted (at most two entries).
	if c.nBreaks == 1 && at < c.breakAt[0] {
		c.breakAt[1], c.breakAdd[1] = c.breakAt[0], c.breakAdd[0]
		c.breakAt[0], c.breakAdd[0] = at, add
		c.nBreaks = 2
		return
	}
	if c.nBreaks == 1 && at == c.breakAt[0] {
		c.breakAdd[0] += add
		return
	}
	c.breakAt[c.nBreaks] = at
	c.breakAdd[c.nBreaks] = add
	c.nBreaks++
}

// clamp pins x into the closed support [lo, hi], absorbing the rounding of
// sample and mean at the interval ends.
func (c *condSpec) clamp(x float64) float64 {
	if x < c.lo {
		return c.lo
	}
	if x > c.hi {
		return c.hi
	}
	return x
}

// condPieces is a condSpec laid out as its linear pieces, with each
// piece's mass held in a scaled linear domain: with the log density
// anchored at f(lo) = 0, piece i integrates to exp(logScale)·mass[i].
// logScale is the largest value f takes at an edge; every piece peaks at
// one of its edges, so the dominant piece's mass needs no exp and no mass
// overflows. A piece that lies more than ~745 below the peak gets mass 0.
type condPieces struct {
	n        int
	edges    [4]float64 // piece i spans (edges[i], edges[i+1])
	slopes   [3]float64
	em1      [3]float64 // expm1(slope·width) of each finite piece
	mass     [3]float64 // mass of each piece over exp(logScale)
	total    float64    // sum of mass
	logScale float64
}

// pieces lays out the spec's pieces and their masses into p, the
// construction sample, mean and logPDF share. It costs one expm1 per
// finite piece and one exp per piece other than the dominant one; em1 is
// kept so sample's inverse CDF and mean's truncExpMean reuse it.
func (c *condSpec) pieces(p *condPieces) {
	p.n = 1
	p.edges[0] = c.lo
	slope := c.baseSlope
	p.slopes[0] = slope
	for b := 0; b < c.nBreaks; b++ {
		p.edges[p.n] = c.breakAt[b]
		slope += c.breakAdd[b]
		p.slopes[p.n] = slope
		p.n++
	}
	p.edges[p.n] = c.hi

	var peak [3]float64 // f at the edge where piece i peaks
	f := 0.0
	p.logScale = math.Inf(-1)
	for i := 0; i < p.n; i++ {
		peak[i] = f
		if w := p.edges[i+1] - p.edges[i]; !math.IsInf(w, 1) {
			mw := p.slopes[i] * w
			p.em1[i] = expm1(mw)
			f += mw
			if mw > 0 {
				peak[i] = f
			}
		}
		if peak[i] > p.logScale {
			p.logScale = peak[i]
		}
	}
	p.total = 0
	for i := 0; i < p.n; i++ {
		mass := peakMass(p.slopes[i], p.edges[i+1]-p.edges[i], p.em1[i])
		if peak[i] != p.logScale {
			mass *= math.Exp(peak[i] - p.logScale)
		}
		p.mass[i] = mass
		p.total += mass
	}
}

// peakMass returns ∫_0^w exp(m·x) dx divided by the integrand's peak,
// e^{max(0, mw)}, given em1 = expm1(m·w): em1/m for m < 0, and
// (1 − e^{−mw})/m = em1/(1+em1)/m for m > 0, which is exactly 1/m once
// e^{mw} overflows. An infinite piece (m < 0) has −1/m, and a flat one w.
func peakMass(m, w, em1 float64) float64 {
	switch {
	case math.IsInf(w, 1):
		return -1 / m
	case em1 == 0: // m = 0, or m·w below the smallest float
		return w
	case m < 0:
		return em1 / m
	case math.IsInf(em1, 1):
		return 1 / m
	default:
		return em1 / (1 + em1) / m
	}
}

// sample draws one value from the normalized density exp(f) where f is the
// piecewise-linear function described by the spec. It requires lo < hi and,
// when hi is +Inf, a negative final slope.
func (c *condSpec) sample(r *xrand.RNG) float64 {
	var p condPieces
	c.pieces(&p)
	u := r.Float64() * p.total
	pick := p.n - 1
	for i := 0; i < p.n; i++ {
		u -= p.mass[i]
		if u < 0 {
			pick = i
			break
		}
	}
	lo := p.edges[pick]
	w := p.edges[pick+1] - lo
	if math.IsInf(w, 1) {
		return lo + r.Exp(-p.slopes[pick])
	}
	return lo + truncExpInv(r.Float64(), p.slopes[pick], w, p.em1[pick])
}

// truncExpInv is the inverse CDF at u of the density ∝ exp(m·x) on (0, w),
// given em1 = expm1(m·w). It computes what xrand.TruncExp(−m, w) does from
// the same u, reusing em1 instead of recomputing it; once e^{mw} overflows
// (there TruncExp would return w) it inverts from the right end instead,
// where e^{−mw} is 0.
func truncExpInv(u, m, w, em1 float64) float64 {
	if m == 0 {
		return u * w
	}
	var x float64
	if math.IsInf(em1, 1) {
		x = w + log1p(-u)/m
	} else {
		x = log1p(u*em1) / m // TruncExp's −log1p(u·em1)/rate, rate = −m
	}
	if x < 0 {
		return 0
	}
	if x > w {
		return w
	}
	return x
}

// mean returns the mean of the normalized density exp(f) described by the
// spec — the deterministic counterpart of sample: the same pieces and
// masses, with each piece contributing its truncated-exponential mean
// instead of a draw. Requires lo < hi and, when hi is +Inf, a negative
// final slope (both guaranteed by the move constructions).
func (c *condSpec) mean() float64 {
	if c.nBreaks == 0 {
		// One piece — the common case; its mass is moot. Most such moves
		// are flat or narrow, where truncExpMean takes its series and
		// needs no expm1.
		w := c.hi - c.lo
		var em1 float64
		if mw := c.baseSlope * w; math.Abs(mw) >= truncExpSeriesMW {
			em1 = expm1(mw)
		}
		return c.lo + truncExpMean(c.baseSlope, w, em1)
	}
	var p condPieces
	c.pieces(&p)
	var acc float64
	for i := 0; i < p.n; i++ {
		if p.mass[i] == 0 {
			continue // zero mass; its (possibly infinite-support) mean is moot
		}
		acc += p.mass[i] * (p.edges[i] + truncExpMean(p.slopes[i], p.edges[i+1]-p.edges[i], p.em1[i]))
	}
	return acc / p.total
}

// logPDF evaluates the normalized log density at x (the MH proposal
// density of GeneralGibbs, and the tests' reference).
func (c *condSpec) logPDF(x float64) float64 {
	if x < c.lo || x > c.hi {
		return math.Inf(-1)
	}
	var p condPieces
	c.pieces(&p)
	logTot := p.logScale + math.Log(p.total)
	f := 0.0
	for i := 0; i < p.n; i++ {
		if x <= p.edges[i+1] || i == p.n-1 {
			return f + p.slopes[i]*(x-p.edges[i]) - logTot
		}
		f += p.slopes[i] * (p.edges[i+1] - p.edges[i])
	}
	return math.Inf(-1) // unreachable
}

// truncExpMean returns the mean of the density ∝ exp(m·x) on (0, w) given
// em1 = expm1(m·w): w/(1−e^{−mw}) − 1/m = w·(1+em1)/em1 − 1/m, with the
// limits w/2 as mw → 0, w − 1/m once e^{mw} overflows, and −1/m for
// w = +Inf (m < 0). The closed form cancels catastrophically for small
// |mw| (both terms ≈ 1/m), so below truncExpSeriesMW it uses the series
// w/2·(1 + mw/6) + O((mw)²w) and leaves em1 unread.
func truncExpMean(m, w, em1 float64) float64 {
	if math.IsInf(w, 1) {
		return -1 / m
	}
	mw := m * w
	if math.Abs(mw) < truncExpSeriesMW {
		return w * 0.5 * (1 + mw/6)
	}
	if math.IsInf(em1, 1) {
		return w - 1/m
	}
	return w*(1+em1)/em1 - 1/m
}

// truncExpSeriesMW is the |m·w| below which truncExpMean uses its series.
const truncExpSeriesMW = 1e-4

// expm1 returns e^x − 1 to within 1e-11 relative of math.Expm1 for every
// x, ±Inf included; log1p does the same for math.Log1p at y ≥ −1. They
// replace math.Expm1 and math.Log1p in the draw: on amd64 math.Exp and
// math.Log are assembly, while math.Expm1 and math.Log1p are Go code that
// branches on its argument, and in a sweep, where the argument changes
// from call to call, the swap takes about a tenth off BenchmarkWindowSweep.
// Above the threshold the direct form loses at most ~2.2e-16/|x| (or
// /|y|) to the cancellation of 1; below it the four-term Taylor series
// errs by under x⁴/120 (y⁴/5) relative. TestExpLogForms checks both.
func expm1(x float64) float64 {
	switch {
	case math.Abs(x) < expLogSeries:
		return x * (1 + x*(1.0/2+x*(1.0/6+x*(1.0/24))))
	case x > 709:
		// math.Exp overflows from about 709.4 on amd64, short of the
		// true edge 709.78; the draw never gets here.
		return math.Expm1(x)
	}
	return math.Exp(x) - 1
}

// log1p returns log(1 + y); see expm1.
func log1p(y float64) float64 {
	if math.Abs(y) < expLogSeries {
		return y * (1 - y*(1.0/2-y*(1.0/3-y*(1.0/4))))
	}
	return math.Log(1 + y)
}

// expLogSeries is the |argument| below which expm1 and log1p use their
// series.
const expLogSeries = 1e-3

// ---------------------------------------------------------------------------
// The two full conditionals.

// arrivalBounds returns the support (L, U) of latent arrival a_e
// (= d_{π(e)}): the FIFO and path constraints that involve it,
//
//	L = max(a_{π(e)}, d_{ρ(π(e))}, a_{ρ(e)})
//	U = min(d_e, a_{ρ⁻¹(e)}, d_{pn}),   pn = ρ⁻¹(π(e)).
//
// When ρ(e) = π(e), a_{ρ(e)} is a_{π(e)} and pn is e itself, so the
// repeated terms leave the bounds unchanged.
func arrivalBounds(es *trace.EventSet, i int) (lo, hi float64) {
	e := &es.Events[i]
	p := e.PrevT // always exists: initial events are never arrival moves
	pe := &es.Events[p]
	lo = es.Arr[p]
	if pe.PrevQ != trace.None {
		if d := es.Dep[pe.PrevQ]; d > lo {
			lo = d
		}
	}
	if e.PrevQ != trace.None {
		if a := es.Arr[e.PrevQ]; a > lo {
			lo = a
		}
	}
	hi = es.Dep[i]
	if e.NextQ != trace.None {
		if a := es.Arr[e.NextQ]; a < hi {
			hi = a
		}
	}
	if pe.NextQ != trace.None {
		if d := es.Dep[pe.NextQ]; d < hi {
			hi = d
		}
	}
	return lo, hi
}

// arrivalCond fills c with the full conditional of latent arrival a_e
// (= d_{π(e)}) under the per-queue rates and reports whether its support
// is a proper interval; false (ties) means the move keeps the current
// value. The log density collects the three affected service-time terms
// (paper Eq. 2):
//
//	s_e      = d_e − max(a, d_{ρ(e)})           rate µ_e
//	s_{π(e)} = a − max(a_{π(e)}, d_{ρ(π(e))})   rate µ_{π(e)}
//	s_{pn}   = d_{pn} − max(a_{pn}, a)          rate µ_{π(e)}, pn = ρ⁻¹(π(e))
//
// on the support (L, U) of arrivalBounds. When ρ(e) = π(e) (a task
// revisiting the same queue back-to-back with no interleaved arrival),
// s_e and s_{pn} are the same service time: there is no third term, and
// the s_e term (slope +µ_e from max(a, d_{ρ(e)} = a) = a) cancels the
// s_{π(e)} term's −µ_{π(e)} (= −µ_e, same queue), leaving a uniform
// conditional.
func arrivalCond(c *condSpec, es *trace.EventSet, rates []float64, i int) bool {
	lo, hi := arrivalBounds(es, i)
	if !(lo < hi) {
		return false
	}
	e := &es.Events[i]
	p := e.PrevT
	if e.PrevQ == p {
		c.reset(lo, hi, 0) // back-to-back same-queue revisit: uniform
		return true
	}
	// Base slope: −µ_π from s_{π(e)} = a − const.
	rateP := rates[es.Events[p].Queue]
	c.reset(lo, hi, -rateP)
	if e.PrevQ == trace.None {
		// Service of e starts at its own arrival: s_e = d_e − a.
		c.baseSlope += rates[e.Queue]
	} else {
		c.addTerm(es.Dep[e.PrevQ], rates[e.Queue])
	}
	if pn := es.Events[p].NextQ; pn != trace.None {
		c.addTerm(es.Arr[pn], rateP)
	}
	return true
}

// finalDepartBounds returns the support of a task's final latent
// departure d_e: (start_e, d_{ρ⁻¹(e)}), or (start_e, ∞) when e is last in
// its queue.
func finalDepartBounds(es *trace.EventSet, i int) (lo, hi float64) {
	lo = es.ServiceStart(i)
	hi = math.Inf(1)
	if next := es.Events[i].NextQ; next != trace.None {
		hi = es.Dep[next]
	}
	return lo, hi
}

// finalDepartCond fills c with the full conditional of a task's final
// departure and reports whether its support is a proper interval. The
// conditional involves the event's own service time and, when a later
// arrival to the same queue exists, that event's service time:
//
//	f(d) = −µ_e(d − start_e) − µ_e(d_next − max(a_next, d))
//
// on the support of finalDepartBounds.
func finalDepartCond(c *condSpec, es *trace.EventSet, rates []float64, i int) bool {
	lo, hi := finalDepartBounds(es, i)
	if !(lo < hi) {
		return false
	}
	e := &es.Events[i]
	rateE := rates[e.Queue]
	c.reset(lo, hi, -rateE)
	if e.NextQ != trace.None {
		c.addTerm(es.Arr[e.NextQ], rateE)
	}
	return true
}

// ---------------------------------------------------------------------------
// The latent moves and their scan.

// latentArrival reports whether e's arrival is a latent move: unobserved,
// and not a task's initial event (whose arrival is fixed).
func latentArrival(e *trace.Event) bool { return !e.Initial() && !e.ObsArrival }

// latentFinalDepart reports whether e's departure is a latent move of its
// own: a task's final event with an unobserved departure. Every other
// departure is the task successor's arrival.
func latentFinalDepart(e *trace.Event) bool { return e.Final() && !e.ObsDepart }

// latentMoves lists the latent times of an event set in event-index
// order: arr holds the events whose arrival is latent, dep the final
// events whose departure is latent. Together they name every latent time
// exactly once.
type latentMoves struct {
	arr, dep []int32
}

// build enumerates the moves of es, reusing the lists' backings.
func (m *latentMoves) build(es *trace.EventSet) {
	m.arr, m.dep = m.arr[:0], m.dep[:0]
	for i := range es.Events {
		e := &es.Events[i]
		if latentArrival(e) {
			m.arr = append(m.arr, int32(i))
		}
		if latentFinalDepart(e) {
			m.dep = append(m.dep, int32(i))
		}
	}
}

// scan visits every move once. The forward scan runs the arrivals, then
// the departures, in index order; the backward scan mirrors it
// (departures first, highest index first). Kernels alternate the
// direction between passes: event indices are assigned in roughly
// chronological order, and a backward scan lets a contraction of late
// times propagate through a whole chain of coupled events within one pass
// (a forward scan does the same for expansions). Any fixed or alternating
// scan order leaves the posterior invariant; alternating just mixes
// dramatically faster when the state starts far from the posterior mode —
// e.g. after initialization with a poor service-time target.
func (m *latentMoves) scan(backward bool, arrival, depart func(i int)) {
	if !backward {
		for _, i := range m.arr {
			arrival(int(i))
		}
		for _, i := range m.dep {
			depart(int(i))
		}
		return
	}
	for k := len(m.dep) - 1; k >= 0; k-- {
		depart(int(m.dep[k]))
	}
	for k := len(m.arr) - 1; k >= 0; k-- {
		arrival(int(m.arr[k]))
	}
}
