package core

import (
	"fmt"

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

	// moves lists the latent arrivals and final departures a sweep updates.
	moves  latentMoves
	sweeps int // completed sweeps (drives the alternating scan order)

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
		g.moves = sc.moves
	}
	g.moves.build(es)
	if sc != nil {
		sc.moves = g.moves
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
func (g *Gibbs) NumLatent() int { return len(g.moves.arr) + len(g.moves.dep) }

// Skipped returns how many degenerate (zero-width) conditionals were
// encountered so far; a large fraction indicates ties in the observed data.
func (g *Gibbs) Skipped() int { return g.mc.skipped }

// Sweep resamples every latent arrival and departure once, alternating
// the scan direction between calls (see latentMoves.scan).
func (g *Gibbs) Sweep() {
	g.moves.scan(g.sweeps%2 == 1, func(i int) {
		resampleArrival(g.set, g.params.Rates, &g.mc, i)
	}, func(i int) {
		resampleFinalDeparture(g.set, g.params.Rates, &g.mc, i)
	})
	g.sweeps++
	if g.stats != nil {
		g.stats.merge(&g.mc)
	}
}

// resampleArrival draws a_e (= d_{π(e)}) from its full conditional
// (arrivalCond), keeping the current value when the support is
// degenerate.
//
// The resamplers are free functions of (event set, rates, move context)
// rather than Gibbs methods because SlidingWindow.Sweep runs the same moves
// over its own window and move context.
func resampleArrival(es *trace.EventSet, rates []float64, mc *moveCtx, i int) {
	var c condSpec
	if !arrivalCond(&c, es, rates, i) {
		// Degenerate interval (ties); keep the current value.
		mc.skipped++
		return
	}
	a := c.clamp(c.sample(mc.rng))
	if mc.dSvc != nil {
		// Writing a_e (= d_{π(e)}) perturbs exactly s_e, w_e, s_{π(e)}, and
		// s/w of ρ⁻¹(π(e)).
		p := es.Events[i].PrevT
		mc.stage(es, i, p, es.Events[p].NextQ)
		es.SetArrival(i, a)
		mc.commit(es)
		return
	}
	es.SetArrival(i, a)
}

// resampleFinalDeparture draws the departure of a task's final event from
// its full conditional (finalDepartCond).
func resampleFinalDeparture(es *trace.EventSet, rates []float64, mc *moveCtx, i int) {
	var c condSpec
	if !finalDepartCond(&c, es, rates, i) {
		mc.skipped++
		return
	}
	d := c.clamp(c.sample(mc.rng))
	if mc.dSvc != nil {
		// Writing d_e perturbs s_e and s/w of ρ⁻¹(e).
		mc.stage(es, i, es.Events[i].NextQ, trace.None)
		es.SetFinalDepart(i, d)
		mc.commit(es)
		return
	}
	es.SetFinalDepart(i, d)
}
