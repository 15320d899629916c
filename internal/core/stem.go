package core

import (
	"fmt"
	"math"

	"repro/internal/trace"
	"repro/internal/xrand"
)

// EMOptions configures StEM and MCEM runs.
type EMOptions struct {
	// Iterations is the number of EM iterations (default 200). Because
	// the E-step is a single Gibbs sweep, the parameter sequence is a
	// Markov chain that needs on the order of the sampler's mixing time;
	// heavily loaded queues at low observation fractions profit from
	// 1000+ iterations (the experiment harness uses 2000).
	Iterations int
	// BurnIn is the number of initial iterations excluded from the
	// parameter average. The zero value selects the default Iterations/2;
	// pass NoBurnIn (-1) to average every iterate.
	BurnIn int
	// Init constructs the initial feasible state (default OrderInitializer).
	Init Initializer
	// InitialParams optionally fixes the starting rates; when nil they are
	// estimated from the observed data with InitialRates.
	InitialParams *Params
	// ESweeps is the number of Gibbs sweeps per E-step: 1 for stochastic
	// EM (the paper's choice), larger values give Monte Carlo EM.
	ESweeps int
	// KeepHistory records the parameter trajectory for diagnostics.
	KeepHistory bool
	// Scratch, when non-nil, donates reusable sampler construction state;
	// see GibbsScratch. Note EMResult.Sampler references the scratch's move
	// lists: it goes stale as soon as the scratch is reused for another
	// construction, so don't sweep it after a subsequent StEM/Posterior
	// call with the same scratch.
	Scratch *GibbsScratch
}

func (o EMOptions) withDefaults() EMOptions {
	if o.Iterations == 0 {
		o.Iterations = 200
	}
	switch {
	case o.BurnIn < 0:
		o.BurnIn = 0
	case o.BurnIn == 0:
		o.BurnIn = o.Iterations / 2
	}
	if o.Init == nil {
		o.Init = OrderInitializer{}
	}
	if o.ESweeps == 0 {
		o.ESweeps = 1
	}
	return o
}

// EMResult is the outcome of a StEM/MCEM run.
type EMResult struct {
	// Params is the point estimate: the average of the post-burn-in
	// parameter iterates (the standard StEM estimator).
	Params Params
	// Last is the final iterate (useful to continue sampling).
	Last Params
	// History is the per-iteration rate trajectory when requested:
	// History[iter][queue].
	History [][]float64
	// Iterations actually run.
	Iterations int
	// Sampler is the Gibbs sampler in its final state; the underlying
	// event set holds the last imputation.
	Sampler *Gibbs
}

// StEM runs stochastic EM (paper §4) on the partially observed event set:
// the E-step replaces the unobserved times with one Gibbs sweep, the M-step
// is the exponential MLE. The event set is mutated in place (initialize,
// then iterate). All randomness comes from rng.
func StEM(es *trace.EventSet, rng *xrand.RNG, opts EMOptions) (*EMResult, error) {
	opts = opts.withDefaults()
	if opts.BurnIn >= opts.Iterations {
		return nil, fmt.Errorf("core: burn-in %d >= iterations %d", opts.BurnIn, opts.Iterations)
	}

	var params Params
	if opts.InitialParams != nil {
		params = opts.InitialParams.Clone()
	} else {
		params = InitialRates(es)
	}
	if len(params.Rates) != es.NumQueues {
		return nil, fmt.Errorf("core: initial params have %d rates for %d queues", len(params.Rates), es.NumQueues)
	}
	if err := opts.Init.Initialize(es, params); err != nil {
		return nil, fmt.Errorf("core: initialization: %w", err)
	}
	g, err := newGibbs(es, params, rng, opts.Scratch)
	if err != nil {
		return nil, err
	}

	res := &EMResult{Iterations: opts.Iterations, Sampler: g}
	sum := make([]float64, es.NumQueues)
	kept := 0
	for iter := 0; iter < opts.Iterations; iter++ {
		if opts.ESweeps == 1 {
			g.Sweep()
			params = MLE(es, params)
		} else {
			// Monte Carlo E-step: average the sufficient statistics
			// (per-queue total service time) over multiple sweeps.
			totals := make([]float64, es.NumQueues)
			for s := 0; s < opts.ESweeps; s++ {
				g.Sweep()
				for q, ids := range es.ByQueue {
					for _, id := range ids {
						totals[q] += es.ServiceTime(id)
					}
				}
			}
			rates := make([]float64, es.NumQueues)
			for q, ids := range es.ByQueue {
				if len(ids) == 0 || totals[q] <= 0 {
					rates[q] = params.Rates[q]
					continue
				}
				r := float64(len(ids)*opts.ESweeps) / totals[q]
				rates[q] = math.Min(math.Max(r, rateFloor), rateCeil)
			}
			params = Params{Rates: rates}
		}
		if err := g.SetParams(params); err != nil {
			return nil, err
		}
		if opts.KeepHistory {
			res.History = append(res.History, append([]float64(nil), params.Rates...))
		}
		if iter >= opts.BurnIn {
			for q, r := range params.Rates {
				sum[q] += r
			}
			kept++
		}
	}
	avg := make([]float64, es.NumQueues)
	for q := range avg {
		avg[q] = sum[q] / float64(kept)
	}
	res.Params = Params{Rates: avg}
	res.Last = params.Clone()
	if err := g.SetParams(res.Params); err != nil {
		return nil, err
	}
	return res, nil
}

// MCEM runs Monte Carlo EM: identical to StEM but with sweepsPerE Gibbs
// sweeps averaged in each E-step. It is provided for the ablation
// comparison the paper alludes to when motivating StEM.
func MCEM(es *trace.EventSet, rng *xrand.RNG, sweepsPerE int, opts EMOptions) (*EMResult, error) {
	if sweepsPerE < 2 {
		return nil, fmt.Errorf("core: MCEM needs >= 2 sweeps per E-step, got %d", sweepsPerE)
	}
	opts.ESweeps = sweepsPerE
	return StEM(es, rng, opts)
}
