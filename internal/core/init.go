package core

import (
	"fmt"
	"math"

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
// The constraint graph. Node i is event i's departure d_i; arrivals are
// their predecessors' departures (or the constant 0 for initial events).
// Every edge u → v encodes d_u ≤ d_v, and every edge is read off the links
// each trace.EventSet already carries:
//
//   - u → NextT(u): the task successor departs no earlier than it arrives;
//   - u → NextQ(u): FIFO departure order;
//   - u → PrevT(NextQ(NextT(u))): arrival order at the queue of u's task
//     successor.
//
// There is no adjacency to build. succs and preds are the one definition
// the mean-field setup, both initializers and the sliding window's repair
// read, and feasPass is the one longest-path pass they run over it.

// succs returns the successors of node u, trace.None in unused slots.
// An edge may appear twice; every reader tolerates that.
func succs(es *trace.EventSet, u int) [3]int {
	e := &es.Events[u]
	s := [3]int{e.NextT, e.NextQ, trace.None}
	if e.NextT != trace.None {
		if x := es.Events[e.NextT].NextQ; x != trace.None {
			if v := es.Events[x].PrevT; v != u {
				s[2] = v
			}
		}
	}
	return s
}

// preds returns the predecessors of node v, trace.None in unused slots:
// succs read backward.
func preds(es *trace.EventSet, v int) [3]int {
	e := &es.Events[v]
	p := [3]int{e.PrevT, e.PrevQ, trace.None}
	if e.NextT != trace.None {
		if x := es.Events[e.NextT].PrevQ; x != trace.None {
			if u := es.Events[x].PrevT; u != v {
				p[2] = u
			}
		}
	}
	return p
}

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

// nodeDepart returns node i's departure as the graph reads it: the next
// event's arrival, or a final event's own departure. For a pinned node it
// is the observed value.
func nodeDepart(es *trace.EventSet, i int) float64 {
	if next := es.Events[i].NextT; next != trace.None {
		return es.Arr[next]
	}
	return es.Dep[i]
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

// feasTol is how far an observed departure may sit below the bound its
// predecessors set: raw event pairs may disagree by up to 1e-6 (the ingest
// store's and the builder's tolerance), and every pass must accept any
// state they accept.
const feasTol = 1e-6

// feasPass is one longest-path pass over the constraint graph, or over a
// region of it: a topological order (order), the upper envelope of pinned
// departures taken backward (envelope), and a forward pass that gives each
// latent departure a value between its predecessors' maximum and that
// envelope (settle). A node outside the region holds its current value.
// Every value is a function of the node's graph neighbours alone, so the
// result does not depend on which topological order Kahn picked.
//
// Nodes are addressed by their local index: the event index over the
// whole graph, the position in the region list otherwise, so a region
// pass costs O(region) whatever the event count. The buffers grow to the
// largest pass seen and are reused in place.
type feasPass struct {
	indeg    []int32
	stack    []int32
	topo     []int32 // local indices in topological order
	pinned   []bool
	ub       []float64
	assigned []float64

	// region lists the events of a region pass (nil over the whole graph),
	// and pos[v] is 1 + event v's position in it, 0 for any other event.
	region []int32
	pos    []int32
}

// local returns v's local index, or -1 when v is None or off the region.
func (p *feasPass) local(v int) int {
	switch {
	case v == trace.None:
		return -1
	case p.region == nil:
		return v
	}
	return int(p.pos[v]) - 1
}

// node returns the event of local index k.
func (p *feasPass) node(k int) int {
	if p.region == nil {
		return k
	}
	return int(p.region[k])
}

// order puts the pass's nodes in topological order (Kahn, LIFO, seeded
// in reverse so the first roots pop first) and records their pinned
// flags. A nil region is every event; otherwise pos must map each listed
// event to 1 + its position. It returns an error on a cyclic constraint
// set (impossible for traces from a real FIFO execution).
func (p *feasPass) order(es *trace.EventSet, region, pos []int32) error {
	p.region, p.pos = region, pos
	count := len(es.Events)
	if region != nil {
		count = len(region)
	}
	p.indeg = zeroI32(p.indeg, count)
	p.pinned = resize(p.pinned, count)
	for k := 0; k < count; k++ {
		u := p.node(k)
		p.pinned[k] = pinnedDepart(es, u)
		for _, v := range succs(es, u) {
			if l := p.local(v); l >= 0 {
				p.indeg[l]++
			}
		}
	}
	p.topo = resize(p.topo, count)[:0]
	p.stack = resize(p.stack, count)[:0]
	for k := count - 1; k >= 0; k-- {
		if p.indeg[k] == 0 {
			p.stack = append(p.stack, int32(k))
		}
	}
	for len(p.stack) > 0 {
		k := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		p.topo = append(p.topo, k)
		for _, v := range succs(es, p.node(int(k))) {
			if l := p.local(v); l >= 0 {
				if p.indeg[l]--; p.indeg[l] == 0 {
					p.stack = append(p.stack, int32(l))
				}
			}
		}
	}
	if len(p.topo) != count {
		return fmt.Errorf("core: event constraint graph has a cycle (%d of %d ordered)", len(p.topo), count)
	}
	return nil
}

// envelope fills ub, backward over the order, with each node's upper
// envelope: the earliest pinned departure at or after it, where a
// successor outside the region counts as pinned where it stands.
func (p *feasPass) envelope(es *trace.EventSet) {
	p.ub = resize(p.ub, len(p.topo))
	for t := len(p.topo) - 1; t >= 0; t-- {
		k := int(p.topo[t])
		u := p.node(k)
		ub := math.Inf(1)
		if p.pinned[k] {
			ub = nodeDepart(es, u)
		}
		for _, v := range succs(es, u) {
			if l := p.local(v); l >= 0 {
				if p.ub[l] < ub {
					ub = p.ub[l]
				}
			} else if v != trace.None {
				if d := nodeDepart(es, v); d < ub {
					ub = d
				}
			}
		}
		p.ub[k] = ub
	}
}

// settle assigns every ordered node a departure, forward over the order,
// from lo, the latest of its predecessors' departures (0 for none). A
// pinned node keeps its observed departure, which may not lie more than
// feasTol below lo. A latent node with rates given aims for lo plus its
// queue's target service time 1/rates[q], capped by caps[q] and by half the
// room up to its envelope (OrderInitializer's scheme); with rates nil it
// keeps its current departure, clamped into [lo, envelope]. It needs
// envelope first and writes nothing to es (apply does).
func (p *feasPass) settle(es *trace.EventSet, rates, caps []float64) error {
	p.assigned = resize(p.assigned, len(p.topo))
	for _, k32 := range p.topo {
		k := int(k32)
		i := p.node(k)
		lo := 0.0
		for _, u := range preds(es, i) {
			if l := p.local(u); l >= 0 {
				if p.assigned[l] > lo {
					lo = p.assigned[l]
				}
			} else if u != trace.None {
				if d := nodeDepart(es, u); d > lo {
					lo = d
				}
			}
		}
		ub := p.ub[k]
		var d float64
		switch {
		case p.pinned[k]:
			d = nodeDepart(es, i)
			if d < lo-feasTol {
				return fmt.Errorf("core: observed departure %v of event %d below feasible bound %v", d, i, lo)
			}
			d = math.Max(d, lo)
		case rates == nil:
			if lo > ub+feasTol {
				return fmt.Errorf("core: infeasible bounds for event %d: lo=%v > ub=%v", i, lo, ub)
			}
			d = math.Max(math.Min(nodeDepart(es, i), ub), lo)
		default:
			q := es.Events[i].Queue
			d = lo + math.Min(1/rates[q], caps[q])
			if !math.IsInf(ub, 1) {
				room := ub - lo
				if room < 0 {
					return fmt.Errorf("core: infeasible bounds for event %d: lo=%v > ub=%v", i, lo, ub)
				}
				if d > lo+room/2 {
					d = lo + room/2
				}
			}
		}
		p.assigned[k] = d
	}
	return nil
}

// clamp runs the whole pass over a region, keeping each latent departure
// where it is, clamped between its predecessors and its envelope, and
// writes the result into es. On error es is untouched.
func (p *feasPass) clamp(es *trace.EventSet, region, pos []int32) error {
	if err := p.order(es, region, pos); err != nil {
		return err
	}
	p.envelope(es)
	if err := p.settle(es, nil, nil); err != nil {
		return err
	}
	p.apply(es)
	return nil
}

// apply writes every settled latent departure into es.
func (p *feasPass) apply(es *trace.EventSet) {
	for _, k32 := range p.topo {
		if k := int(k32); !p.pinned[k] {
			applyDeparture(es, p.node(k), p.assigned[k])
		}
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
	if err := sc.order(es, nil, nil); err != nil {
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
	var g feasPass
	if err := g.order(es, nil, nil); err != nil {
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
			p.AddEQ([]int{dVar(i)}, []float64{1}, nodeDepart(es, i))
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
