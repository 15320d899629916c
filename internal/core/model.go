// Package core implements the paper's contribution: posterior inference in
// networks of M/M/1 FIFO queues from an incomplete sample of arrival and
// departure times. It provides
//
//   - a Gibbs sampler over the unobserved arrival times (paper §3), with the
//     per-event full conditional sampled exactly from its piecewise
//     log-linear form (the generalization of the paper's Figure 3),
//   - feasible-state initializers, including the paper's linear-programming
//     construction (§3, last paragraph) and a fast order-based construction,
//   - stochastic EM and Monte Carlo EM for parameter estimation (§4), and
//   - posterior estimators of per-queue mean service and waiting times.
//
// Throughout, the event-set representation of internal/trace is mutated in
// place: arrival times and their within-task predecessor departures are the
// same latent variable.
package core

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Params holds the model parameters: one exponential rate per queue. Index
// 0 is the arrival queue q0, so Rates[0] is the system arrival rate λ and
// Rates[q] is the service rate µ_q of queue q.
type Params struct {
	Rates []float64
}

// NewParams validates and wraps a rate vector.
func NewParams(rates []float64) (Params, error) {
	if len(rates) == 0 {
		return Params{}, fmt.Errorf("core: empty rate vector")
	}
	for q, r := range rates {
		if !(r > 0) || math.IsInf(r, 1) {
			return Params{}, fmt.Errorf("core: rate[%d] = %v must be positive and finite", q, r)
		}
	}
	return Params{Rates: append([]float64(nil), rates...)}, nil
}

// Clone returns a deep copy.
func (p Params) Clone() Params {
	return Params{Rates: append([]float64(nil), p.Rates...)}
}

// MeanServiceTimes returns 1/rate per queue (for q0, the mean interarrival
// time).
func (p Params) MeanServiceTimes() []float64 {
	out := make([]float64, len(p.Rates))
	for i, r := range p.Rates {
		out[i] = 1 / r
	}
	return out
}

// rateFloor and rateCeil bound MLE rates away from degenerate values when a
// queue's total observed service time is zero (or enormous).
const (
	rateFloor = 1e-9
	rateCeil  = 1e12
)

// MLE returns the complete-data maximum-likelihood estimate of all rates
// given the current (imputed) event times: rate_q = n_q / Σ_{e at q} s_e.
// This is the M-step of the EM algorithms. Queues with no events keep the
// corresponding rate from prev (or 1 if prev is empty).
func MLE(es *trace.EventSet, prev Params) Params {
	rates := make([]float64, es.NumQueues)
	if len(prev.Rates) == es.NumQueues {
		copy(rates, prev.Rates)
	} else {
		for q := range rates {
			rates[q] = 1
		}
	}
	mleInto(rates, es)
	return Params{Rates: rates}
}

// mleInto replaces rates in place with the complete-data MLE of the current
// (imputed) event times — MLE without its allocation; queues with no events
// keep their previous rate. An event's service starts at
// max(a_e, d_{ρ(e)}), and ρ(e) is its predecessor in ByQueue, so the walk
// reads the times alone and never the event records.
func mleInto(rates []float64, es *trace.EventSet) {
	for q, ids := range es.ByQueue {
		if len(ids) == 0 {
			continue
		}
		var total float64
		prevDep := math.Inf(-1)
		for _, id := range ids {
			start := es.Arr[id]
			if prevDep > start {
				start = prevDep
			}
			prevDep = es.Dep[id]
			total += prevDep - start
		}
		if total <= 0 {
			rates[q] = rateCeil
			continue
		}
		rates[q] = math.Min(math.Max(float64(len(ids))/total, rateFloor), rateCeil)
	}
}

// LogLikelihood returns the complete-data log likelihood of the service
// times under p (the FSM path probabilities are constant in both the latent
// times and p, and are omitted):
//
//	Σ_e [ log µ_{q_e} − µ_{q_e}·s_e ].
func (p Params) LogLikelihood(es *trace.EventSet) float64 {
	if len(p.Rates) != es.NumQueues {
		panic(fmt.Sprintf("core: params have %d rates for %d queues", len(p.Rates), es.NumQueues))
	}
	var ll float64
	for q, ids := range es.ByQueue {
		rate := p.Rates[q]
		logRate := math.Log(rate)
		for _, id := range ids {
			s := es.ServiceTime(id)
			if s < 0 {
				return math.Inf(-1)
			}
			ll += logRate - rate*s
		}
	}
	return ll
}

// InitialRates returns a starting parameter vector for EM computed from
// observed data only: for each queue, the reciprocal of the *median*
// observed response time. Under light load the response is close to the
// service time, so the median is about right; under heavy load the median
// response overshoots the mean service time (it is dominated by waiting),
// which is harmless because OrderInitializer independently caps its
// per-event targets at the observed span divided by the queue's event
// count — a bound that any feasible state must respect on average.
// Queues with no observed events fall back to the global value; λ comes
// from the observed entry times.
func InitialRates(es *trace.EventSet) Params {
	responses := make([][]float64, es.NumQueues)
	for i := range es.Events {
		e := &es.Events[i]
		if e.Initial() || !e.ObsArrival {
			continue
		}
		pinned := false
		if e.NextT != trace.None {
			pinned = es.Events[e.NextT].ObsArrival
		} else {
			pinned = e.ObsDepart
		}
		if !pinned {
			continue
		}
		if resp := es.Dep[i] - es.Arr[i]; resp > 0 {
			responses[e.Queue] = append(responses[e.Queue], resp)
		}
	}
	var global []float64
	for q := 1; q < es.NumQueues; q++ {
		global = append(global, responses[q]...)
	}
	globalScale := 1.0
	if len(global) > 0 {
		globalScale = stats.Median(global)
	}
	rates := make([]float64, es.NumQueues)
	for q := 1; q < es.NumQueues; q++ {
		if len(responses[q]) > 0 {
			rates[q] = 1 / stats.Median(responses[q])
		} else {
			rates[q] = 1 / globalScale
		}
	}
	rates[0] = observedArrivalRate(es)
	return Params{Rates: rates}
}

// observedArrivalRate estimates λ from the entry times of observed tasks.
func observedArrivalRate(es *trace.EventSet) float64 {
	var minE, maxE float64
	minE = math.Inf(1)
	maxE = math.Inf(-1)
	n := 0
	for k := 0; k < es.NumTasks; k++ {
		first := es.ByTask[k][0]
		// The entry is observed when the first real event's arrival is.
		next := es.Events[first].NextT
		if next == trace.None || !es.Events[next].ObsArrival {
			continue
		}
		t := es.Dep[first]
		if t < minE {
			minE = t
		}
		if t > maxE {
			maxE = t
		}
		n++
	}
	if n < 2 || maxE <= minE {
		return 1
	}
	// n observed tasks over the span; scale up by the total task count to
	// account for unobserved tasks interleaved in the same span.
	return float64(es.NumTasks) / float64(n) * float64(n-1) / (maxE - minE)
}
