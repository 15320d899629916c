package core

import (
	"fmt"
	"math"

	"repro/internal/trace"
	"repro/internal/xrand"
)

// Gibbs samples from the posterior over unobserved arrival and departure
// times of an event set, conditioned on the observed times, the known FSM
// paths, and the fixed per-queue arrival order (paper §3). The event set is
// mutated in place; each Sweep performs one systematic scan, consuming the
// caller's RNG directly.
type Gibbs struct {
	set    *trace.EventSet
	params Params

	// arrivalMoves lists events whose arrival is latent (non-initial,
	// unobserved); departMoves lists final events with latent departures.
	arrivalMoves []int
	departMoves  []int
	sweeps       int // completed sweeps (drives the alternating scan order)

	// mc is the scan's move context; its RNG aliases the caller's.
	mc moveCtx

	// stats, when non-nil, holds incremental per-queue Σservice/Σwait kept
	// up to date by O(1) delta hooks on every latent-time write.
	stats *queueStats
}

// moveCtx is the state a scan needs besides the event set and rates: its
// RNG, its diagnostics counter, and the staging area of the incremental
// statistics delta hook. Gibbs and SlidingWindow each own one.
type moveCtx struct {
	rng     *xrand.RNG
	skipped int

	// Incremental-statistics staging: dSvc/dWait are non-nil when the
	// sampler tracks queue statistics. A move stages the service/wait of
	// the (at most three) events it perturbs before writing, then commits
	// the differences into the per-queue deltas, which are merged into the
	// global sums at the end of each sweep.
	dSvc, dWait []float64
	nAff        int
	affEv       [3]int
	affSvc      [3]float64
	affWait     [3]float64
}

// stage records the pre-write service and waiting times of the affected
// events a, b and c (deduplicated; pass trace.None for an absent event).
func (mc *moveCtx) stage(es *trace.EventSet, a, b, c int) {
	mc.nAff = 0
	mc.stage1(es, a)
	if b != a {
		mc.stage1(es, b)
	}
	if c != a && c != b {
		mc.stage1(es, c)
	}
}

func (mc *moveCtx) stage1(es *trace.EventSet, id int) {
	if id == trace.None {
		return
	}
	start := es.ServiceStart(id)
	mc.affEv[mc.nAff] = id
	mc.affSvc[mc.nAff] = es.Dep[id] - start
	mc.affWait[mc.nAff] = start - es.Arr[id]
	mc.nAff++
}

// commit recomputes the staged events' statistics after the write and
// accumulates the differences into the per-queue deltas.
func (mc *moveCtx) commit(es *trace.EventSet) {
	for k := 0; k < mc.nAff; k++ {
		id := mc.affEv[k]
		start := es.ServiceStart(id)
		q := es.Events[id].Queue
		mc.dSvc[q] += (es.Dep[id] - start) - mc.affSvc[k]
		mc.dWait[q] += (start - es.Arr[id]) - mc.affWait[k]
	}
	mc.nAff = 0
}

// NewGibbs validates inputs and prepares the move lists. The event set
// must already be in a feasible state (use an Initializer after masking
// observations).
func NewGibbs(es *trace.EventSet, params Params, rng *xrand.RNG) (*Gibbs, error) {
	return newGibbs(es, params, rng, nil)
}

// newGibbs is NewGibbs with an optional scratch that donates its move-list
// backings to the construction (see GibbsScratch).
func newGibbs(es *trace.EventSet, params Params, rng *xrand.RNG, sc *GibbsScratch) (*Gibbs, error) {
	if len(params.Rates) != es.NumQueues {
		return nil, fmt.Errorf("core: %d rates for %d queues", len(params.Rates), es.NumQueues)
	}
	for q, r := range params.Rates {
		if !(r > 0) {
			return nil, fmt.Errorf("core: rate[%d] = %v must be positive", q, r)
		}
	}
	if rng == nil {
		return nil, fmt.Errorf("core: nil RNG")
	}
	if err := es.Validate(1e-6); err != nil {
		return nil, fmt.Errorf("core: infeasible initial state: %w", err)
	}
	g := &Gibbs{set: es, params: params}
	g.mc.rng = rng
	if sc != nil {
		g.arrivalMoves = sc.arrivalMoves[:0]
		g.departMoves = sc.departMoves[:0]
	}
	for i := range es.Events {
		e := &es.Events[i]
		if !e.Initial() && !e.ObsArrival {
			g.arrivalMoves = append(g.arrivalMoves, i)
		}
		if e.Final() && !e.ObsDepart {
			g.departMoves = append(g.departMoves, i)
		}
	}
	if sc != nil {
		sc.arrivalMoves = g.arrivalMoves
		sc.departMoves = g.departMoves
	}
	return g, nil
}

// SetParams replaces the rate vector (used between StEM iterations).
func (g *Gibbs) SetParams(p Params) error {
	if len(p.Rates) != g.set.NumQueues {
		return fmt.Errorf("core: %d rates for %d queues", len(p.Rates), g.set.NumQueues)
	}
	g.params = p
	return nil
}

// Params returns the current rate vector.
func (g *Gibbs) Params() Params { return g.params }

// Set returns the underlying (mutated) event set.
func (g *Gibbs) Set() *trace.EventSet { return g.set }

// NumLatent returns the number of latent variables the sampler updates per
// sweep.
func (g *Gibbs) NumLatent() int { return len(g.arrivalMoves) + len(g.departMoves) }

// Skipped returns how many degenerate (zero-width) conditionals were
// encountered so far; a large fraction indicates ties in the observed data.
func (g *Gibbs) Skipped() int { return g.mc.skipped }

// Sweep resamples every latent arrival and departure once. The scan
// alternates direction between calls: event indices are assigned in
// roughly chronological order, and a backward scan lets a contraction of
// late times propagate through a whole chain of coupled events within one
// sweep (a forward scan does the same for expansions). Any fixed or
// alternating scan order leaves the posterior invariant; alternating just
// mixes dramatically faster when the state starts far from the posterior
// mode — e.g. after initialization with a poor service-time target.
func (g *Gibbs) Sweep() {
	if g.sweeps%2 == 0 {
		for _, i := range g.arrivalMoves {
			resampleArrival(g.set, g.params.Rates, &g.mc, i)
		}
		for _, i := range g.departMoves {
			resampleFinalDeparture(g.set, g.params.Rates, &g.mc, i)
		}
	} else {
		for k := len(g.departMoves) - 1; k >= 0; k-- {
			resampleFinalDeparture(g.set, g.params.Rates, &g.mc, g.departMoves[k])
		}
		for k := len(g.arrivalMoves) - 1; k >= 0; k-- {
			resampleArrival(g.set, g.params.Rates, &g.mc, g.arrivalMoves[k])
		}
	}
	g.sweeps++
	if g.stats != nil {
		g.stats.merge(&g.mc)
	}
}

// resampleArrival draws a_e (= d_{π(e)}) from its full conditional. The log
// density collects the three affected service-time terms (paper Eq. 2):
//
//	s_e      = d_e − max(a, d_{ρ(e)})           rate µ_e
//	s_{π(e)} = a − max(a_{π(e)}, d_{ρ(π(e))})   rate µ_{π(e)}
//	s_{pn}   = d_{pn} − max(a_{pn}, a)          rate µ_{π(e)}, pn = ρ⁻¹(π(e))
//
// subject to L ≤ a ≤ U with
//
//	L = max(a_{π(e)}, d_{ρ(π(e))}, a_{ρ(e)})
//	U = min(d_e, a_{ρ⁻¹(e)}, d_{pn}).
//
// When ρ(e) = π(e) (a task revisiting the same queue back-to-back with no
// interleaved arrival), s_e and s_{pn} coincide and the terms cancel to a
// uniform conditional; this falls out of the construction below.
//
// The resamplers are free functions of (event set, rates, move context)
// rather than Gibbs methods because SlidingWindow.Sweep runs the same moves
// over its own window and move context.
func resampleArrival(es *trace.EventSet, rates []float64, mc *moveCtx, i int) {
	e := &es.Events[i]
	p := e.PrevT // always exists: initial events are never arrival moves
	pe := &es.Events[p]
	rateE := rates[e.Queue]
	rateP := rates[pe.Queue]

	// Bounds.
	lo := es.Arr[p] // a ≥ a_{π(e)}
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
		// e immediately follows π(e) in the same queue: s_e and s_{pn}
		// are the same service time. No third term, and the s_e term
		// (slope +µ_e from max(a, d_{ρ(e)}=a) = a) cancels the s_{π}
		// term's −µ_π (= −µ_e, same queue).
		pn = trace.None
	}
	if pn != trace.None {
		if d := es.Dep[pn]; d < hi {
			hi = d
		}
	}
	if !(lo < hi) {
		// Degenerate interval (ties); keep the current value.
		mc.skipped++
		return
	}

	var c condSpec
	switch {
	case e.PrevQ == p:
		// Back-to-back same-queue revisit: uniform.
		c.reset(lo, hi, 0)
	default:
		// Base slope: −µ_π from s_{π(e)} = a − const.
		c.reset(lo, hi, -rateP)
		if e.PrevQ == trace.None {
			// Service of e starts at its own arrival: s_e = d_e − a.
			c.baseSlope += rateE
		} else {
			c.addTerm(es.Dep[e.PrevQ], rateE)
		}
		if pn != trace.None {
			c.addTerm(es.Arr[pn], rateP)
		}
	}
	a := c.sample(mc.rng)
	if a < lo {
		a = lo
	}
	if a > hi {
		a = hi
	}
	if mc.dSvc != nil {
		// Writing a_e (= d_{π(e)}) perturbs exactly s_e, w_e, s_{π(e)}, and
		// s/w of ρ⁻¹(π(e)).
		mc.stage(es, i, p, pe.NextQ)
		es.SetArrival(i, a)
		mc.commit(es)
		return
	}
	es.SetArrival(i, a)
}

// resampleFinalDeparture draws the departure of a task's final event, whose
// conditional involves its own service time and, when a later arrival to
// the same queue exists, that event's service time:
//
//	f(d) = −µ_e(d − start_e) − µ_e(d_next − max(a_next, d))
//
// on (start_e, d_next), or (start_e, ∞) when the event is last in its
// queue.
func resampleFinalDeparture(es *trace.EventSet, rates []float64, mc *moveCtx, i int) {
	e := &es.Events[i]
	rateE := rates[e.Queue]

	lo := es.ServiceStart(i)
	hi := math.Inf(1)
	if e.NextQ != trace.None {
		hi = es.Dep[e.NextQ]
	}
	if !(lo < hi) {
		mc.skipped++
		return
	}
	var c condSpec
	c.reset(lo, hi, -rateE)
	if e.NextQ != trace.None {
		c.addTerm(es.Arr[e.NextQ], rateE)
	}
	d := c.sample(mc.rng)
	if d < lo {
		d = lo
	}
	if !math.IsInf(hi, 1) && d > hi {
		d = hi
	}
	if mc.dSvc != nil {
		// Writing d_e perturbs s_e and s/w of ρ⁻¹(e).
		mc.stage(es, i, e.NextQ, trace.None)
		es.SetFinalDepart(i, d)
		mc.commit(es)
		return
	}
	es.SetFinalDepart(i, d)
}
