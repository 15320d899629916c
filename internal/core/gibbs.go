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

	// moves lists the latent arrivals and final departures a sweep updates.
	moves  latentMoves
	sweeps int // completed sweeps (drives the alternating scan order)

	// mc is the scan's move context; its RNG aliases the caller's.
	mc moveCtx
}

// moveCtx is the state a scan needs besides the event set and rates: its
// RNG and its diagnostics counter. Gibbs and SlidingWindow each own one.
type moveCtx struct {
	rng     *xrand.RNG
	skipped int
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
	sweepMoves(g.set, g.params.Rates, &g.mc, &g.moves, g.sweeps%2 == 1)
	g.sweeps++
}

// QueueMeansInto writes the current per-queue mean service and waiting
// times into svc and wait (length NumQueues), summed over the event set in
// one pass; queues with no events get NaN.
func (g *Gibbs) QueueMeansInto(svc, wait []float64) {
	sumServiceWait(g.set, 0, svc, wait)
	for q, ids := range g.set.ByQueue {
		if n := len(ids); n > 0 {
			svc[q] /= float64(n)
			wait[q] /= float64(n)
		} else {
			svc[q], wait[q] = math.NaN(), math.NaN()
		}
	}
}

// sumServiceWait writes into svc and wait the per-queue Σservice and
// Σwait of the events of es from index from on, in one index-order pass.
// It is the one computation of the sums the M-step and the posterior
// means read, for the offline sampler and the sliding window alike.
func sumServiceWait(es *trace.EventSet, from int, svc, wait []float64) {
	clear(svc)
	clear(wait)
	for i := from; i < len(es.Events); i++ {
		start := es.ServiceStart(i)
		q := es.Events[i].Queue
		svc[q] += es.Dep[i] - start
		wait[q] += start - es.Arr[i]
	}
}

// sweepMoves runs one Gibbs sweep of the moves m over es, in the scan
// direction backward selects. It is the sweep of both kernels: Gibbs lists
// its moves in event-index order, SlidingWindow in chain order.
func sweepMoves(es *trace.EventSet, rates []float64, mc *moveCtx, m *latentMoves, backward bool) {
	m.scan(backward, func(i int) {
		resampleArrival(es, rates, mc, i)
	}, func(i int) {
		resampleFinalDeparture(es, rates, mc, i)
	})
}

// resampleArrival draws a_e (= d_{π(e)}) from its full conditional
// (arrivalCond), keeping the current value when the support is
// degenerate.
func resampleArrival(es *trace.EventSet, rates []float64, mc *moveCtx, i int) {
	var c condSpec
	if !arrivalCond(&c, es, rates, i) {
		// Degenerate interval (ties); keep the current value.
		mc.skipped++
		return
	}
	es.SetArrival(i, c.clamp(c.sample(mc.rng)))
}

// resampleFinalDeparture draws the departure of a task's final event from
// its full conditional (finalDepartCond).
func resampleFinalDeparture(es *trace.EventSet, rates []float64, mc *moveCtx, i int) {
	var c condSpec
	if !finalDepartCond(&c, es, rates, i) {
		mc.skipped++
		return
	}
	es.SetFinalDepart(i, c.clamp(c.sample(mc.rng)))
}
