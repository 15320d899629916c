package core

import (
	"fmt"

	"repro/internal/lp"
	"repro/internal/trace"
)

// Initializer fills in the unobserved times of an event set with values
// that satisfy every deterministic constraint (non-negative service times,
// per-queue arrival order), so the Gibbs sampler starts from a feasible
// state. targetRates supplies the per-queue rates whose reciprocals are the
// service times the initializer aims for (the paper's µ in Σ|s_e − µ_qe|).
type Initializer interface {
	Initialize(es *trace.EventSet, targetRates Params) error
}

// ---------------------------------------------------------------------------
// Constraint graph shared by both initializers: MeanFieldScratch.buildGraph
// (meanfield.go) builds it in CSR form. Node i is event i's departure d_i;
// arrivals are their predecessors' departures (or the constant 0 for
// initial events). Every edge u → v encodes d_u ≤ d_v.

// pinnedDepart reports whether event i's departure is observation-fixed:
// either the next event's arrival is observed, or i is final with an
// observed departure.
func pinnedDepart(es *trace.EventSet, i int) bool {
	e := &es.Events[i]
	if e.NextT != trace.None {
		return es.Events[e.NextT].ObsArrival
	}
	return e.ObsDepart
}

// applyDeparture writes d as event i's departure, propagating to the next
// event's arrival.
func applyDeparture(es *trace.EventSet, i int, d float64) {
	e := &es.Events[i]
	if e.NextT != trace.None {
		es.SetArrival(e.NextT, d)
	} else {
		es.Dep[i] = d
	}
}

// ---------------------------------------------------------------------------
// OrderInitializer

// OrderInitializer constructs a feasible state directly from the constraint
// graph: it assigns departures in topological order, giving each event a
// service time near the target mean but never exceeding half the remaining
// slack to its upper envelope. It runs in O(events) and is the default for
// large traces, where the paper's LP would be impractically slow with a
// dense solver.
//
// Target service times are additionally capped, per queue, at the observed
// time span divided by that queue's event count — a bound any feasible
// state respects on average. Without the cap, a poor target (e.g. a
// response-time-based rate at a heavily loaded queue) makes events with no
// downstream observation — the tail of the trace — stretch far beyond the
// observed horizon, and the Gibbs sampler contracts such states only
// diffusively: every event is pinned between equally stretched neighbors,
// so the excess drains a fraction of one service time per sweep. The cap
// is per queue rather than global so that lightly loaded queues (whose
// targets are fine) are not squashed into an equally slow-to-expand
// over-compact state.
type OrderInitializer struct{}

// Initialize implements Initializer. The construction is
// MeanFieldScratch.feasibleInit, steered by targetRates as given (no
// clamping).
func (OrderInitializer) Initialize(es *trace.EventSet, targetRates Params) error {
	if len(targetRates.Rates) != es.NumQueues {
		return fmt.Errorf("core: %d target rates for %d queues", len(targetRates.Rates), es.NumQueues)
	}
	var sc MeanFieldScratch
	if err := sc.buildGraph(es); err != nil {
		return err
	}
	return sc.feasibleInit(es, targetRates.Rates)
}

// ---------------------------------------------------------------------------
// LPInitializer

// LPInitializer reproduces the paper's initialization: minimize
// Σ_e |s_e − 1/µ_{q_e}| over the unobserved times subject to the
// deterministic constraints, as a linear program with epigraph variables
// for the service start (t_e ≥ a_e, t_e ≥ d_{ρ(e)}) and the absolute
// deviation. The dense simplex solver limits this to modest traces
// (≲ a few hundred free events); MaxEvents guards against accidental use on
// large inputs, and callers fall back to OrderInitializer above that size.
type LPInitializer struct {
	// MaxEvents bounds the number of events (default 600).
	MaxEvents int
	// Objective, when non-nil, receives the optimal LP objective value
	// Σ_e u_e after each successful Initialize. Because the service start
	// is relaxed to an epigraph variable (t_e ≥ max(a_e, d_ρ(e)) instead
	// of equality), this is a lower bound on the realized Σ|s_e − µ|.
	Objective *float64
}

// Initialize implements Initializer.
func (ini LPInitializer) Initialize(es *trace.EventSet, targetRates Params) error {
	if len(targetRates.Rates) != es.NumQueues {
		return fmt.Errorf("core: %d target rates for %d queues", len(targetRates.Rates), es.NumQueues)
	}
	maxEvents := ini.MaxEvents
	if maxEvents == 0 {
		maxEvents = 600
	}
	n := len(es.Events)
	if n > maxEvents {
		return fmt.Errorf("core: LP initializer limited to %d events, trace has %d (use OrderInitializer)", maxEvents, n)
	}
	var g MeanFieldScratch
	if err := g.buildGraph(es); err != nil {
		return err
	}
	// Variables: d_i (n), t_i (n), u_i (n). d_i of pinned events are fixed
	// via equality constraints (simpler than substitution, and n is small).
	dVar := func(i int) int { return i }
	tVar := func(i int) int { return n + i }
	uVar := func(i int) int { return 2*n + i }
	p := lp.NewProblem(3 * n)
	for i := 0; i < n; i++ {
		p.SetObjective(uVar(i), 1)
	}
	for i := 0; i < n; i++ {
		e := &es.Events[i]
		if g.pinned[i] {
			p.AddEQ([]int{dVar(i)}, []float64{1}, observedDepart(es, i))
		}
		// t_i ≥ a_i: a_i is d_{π(i)} or the constant 0.
		if e.PrevT != trace.None {
			p.AddGE([]int{tVar(i), dVar(e.PrevT)}, []float64{1, -1}, 0)
		} // initial events: t_i ≥ 0 holds by variable bounds
		// t_i ≥ d_{ρ(i)}.
		if e.PrevQ != trace.None {
			p.AddGE([]int{tVar(i), dVar(e.PrevQ)}, []float64{1, -1}, 0)
		}
		// s_i = d_i − t_i ≥ 0.
		p.AddGE([]int{dVar(i), tVar(i)}, []float64{1, -1}, 0)
		// |s_i − target| epigraph.
		target := 1 / targetRates.Rates[e.Queue]
		p.AddGE([]int{uVar(i), dVar(i), tVar(i)}, []float64{1, -1, 1}, -target)
		p.AddGE([]int{uVar(i), dVar(i), tVar(i)}, []float64{1, 1, -1}, target)
		// Arrival order at the queue: a_{ρ(i)} ≤ a_i.
		if e.PrevQ != trace.None {
			pu := es.Events[e.PrevQ].PrevT
			pi := e.PrevT
			switch {
			case pu == trace.None && pi == trace.None:
				// Both arrivals are 0 — trivially ordered.
			case pu == trace.None:
				p.AddGE([]int{dVar(pi)}, []float64{1}, 0)
			case pi == trace.None:
				p.AddLE([]int{dVar(pu)}, []float64{1}, 0)
			default:
				p.AddGE([]int{dVar(pi), dVar(pu)}, []float64{1, -1}, 0)
			}
		}
	}
	res, err := p.Solve()
	if err != nil {
		return fmt.Errorf("core: LP initializer: %w", err)
	}
	if ini.Objective != nil {
		*ini.Objective = res.Objective
	}
	// Apply in topological order; clamp tiny simplex round-off so the
	// resulting state validates.
	for _, i32 := range g.topo {
		i := int(i32)
		if g.pinned[i] {
			continue
		}
		d := res.X[dVar(i)]
		lo := es.ServiceStart(i) // after predecessors were applied
		if d < lo {
			d = lo
		}
		applyDeparture(es, i, d)
	}
	return es.Validate(1e-6)
}
