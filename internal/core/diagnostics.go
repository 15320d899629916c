package core

import (
	"fmt"
	"sync"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Diagnostics quantifies the reliability of posterior estimates: effective
// sample sizes of the per-queue waiting-time chains, the Gelman–Rubin R̂
// across independent chains, and credible intervals. The paper notes that
// the running time "depends on the number of iterations required to reach
// convergence" — these are the tools that make that judgement.
type Diagnostics struct {
	// ESS[q] is the effective sample size of queue q's mean-wait chain
	// (averaged across chains).
	ESS []float64
	// RHat[q] is the potential scale reduction across chains (near 1 when
	// converged; NaN with a single chain).
	RHat []float64
	// WaitLo and WaitHi bound the central credible interval of each
	// queue's mean waiting time at the requested level, pooled over
	// chains.
	WaitLo, WaitHi []float64
	// MeanWait is the pooled posterior mean (like PosteriorSummary's).
	MeanWait []float64
	// Chains is the number of chains run.
	Chains int
}

// DiagnosticsOptions configures DiagnosePosterior.
type DiagnosticsOptions struct {
	// Chains is the number of independent Gibbs chains (default 3). Each
	// chain re-initializes the latent state with OrderInitializer and a
	// different RNG stream.
	Chains int
	// Sweeps per chain (default 200) and BurnIn (default Sweeps/4).
	Sweeps, BurnIn int
	// Level is the credible level (default 0.9).
	Level float64
}

func (o DiagnosticsOptions) withDefaults() DiagnosticsOptions {
	if o.Chains == 0 {
		o.Chains = 3
	}
	if o.Sweeps == 0 {
		o.Sweeps = 200
	}
	if o.BurnIn == 0 {
		o.BurnIn = o.Sweeps / 4
	}
	if o.Level == 0 {
		o.Level = 0.9
	}
	return o
}

// chainClones recycles the per-chain working copies of DiagnosePosterior
// (and other chain-parallel drivers) across calls, so repeated diagnosis of
// same-shaped traces stops churning multi-megabyte clone allocations.
var chainClones trace.ClonePool

// DiagnosePosterior runs several independent Gibbs chains with the given
// fixed parameters and returns convergence diagnostics and credible
// intervals for the per-queue mean waiting times. The input event set is
// not modified (each chain works on a pooled clone).
//
// Chains run concurrently — one goroutine each, with RNG streams split up
// front in chain order — so wall time scales with available cores while
// the chains themselves stay bit-identical for a fixed seed at any level
// of parallelism. Each kept sweep's queue summaries are summed over the
// chain's event set in one pass (Gibbs.QueueMeansInto).
func DiagnosePosterior(es *trace.EventSet, params Params, rng *xrand.RNG, opts DiagnosticsOptions) (*Diagnostics, error) {
	opts = opts.withDefaults()
	if opts.BurnIn >= opts.Sweeps {
		return nil, fmt.Errorf("core: burn-in %d >= sweeps %d", opts.BurnIn, opts.Sweeps)
	}
	if !(opts.Level > 0 && opts.Level < 1) {
		return nil, fmt.Errorf("core: credible level %v outside (0,1)", opts.Level)
	}
	nq := es.NumQueues
	// chains[c][q] is the mean-wait trajectory of queue q in chain c.
	// Chains are independent, so they run concurrently; RNG streams are
	// split up front (deterministically) before the goroutines start.
	chains := make([][][]float64, opts.Chains)
	errs := make([]error, opts.Chains)
	rngs := make([]*xrand.RNG, opts.Chains)
	for c := range rngs {
		rngs[c] = rng.Split()
	}
	var wg sync.WaitGroup
	for c := 0; c < opts.Chains; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			work := chainClones.Get(es)
			defer chainClones.Put(work)
			if err := (OrderInitializer{}).Initialize(work, params); err != nil {
				errs[c] = fmt.Errorf("core: chain %d init: %w", c, err)
				return
			}
			g, err := NewGibbs(work, params, rngs[c])
			if err != nil {
				errs[c] = fmt.Errorf("core: chain %d: %w", c, err)
				return
			}
			svc := make([]float64, nq)
			wait := make([]float64, nq)
			chains[c] = make([][]float64, nq)
			kept := opts.Sweeps - opts.BurnIn
			for q := 0; q < nq; q++ {
				chains[c][q] = make([]float64, 0, kept)
			}
			for sweep := 0; sweep < opts.Sweeps; sweep++ {
				g.Sweep()
				if sweep < opts.BurnIn {
					continue
				}
				g.QueueMeansInto(svc, wait)
				for q := 0; q < nq; q++ {
					chains[c][q] = append(chains[c][q], wait[q])
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	d := &Diagnostics{
		ESS:      make([]float64, nq),
		RHat:     make([]float64, nq),
		WaitLo:   make([]float64, nq),
		WaitHi:   make([]float64, nq),
		MeanWait: make([]float64, nq),
		Chains:   opts.Chains,
	}
	alpha := (1 - opts.Level) / 2
	for q := 0; q < nq; q++ {
		perChain := make([][]float64, opts.Chains)
		var pooled []float64
		var essSum float64
		for c := 0; c < opts.Chains; c++ {
			perChain[c] = chains[c][q]
			pooled = append(pooled, chains[c][q]...)
			essSum += stats.ESS(chains[c][q])
		}
		d.ESS[q] = essSum / float64(opts.Chains)
		d.RHat[q] = stats.GelmanRubin(perChain)
		d.MeanWait[q] = stats.Mean(pooled)
		qs := stats.Quantiles(pooled, alpha, 1-alpha)
		d.WaitLo[q], d.WaitHi[q] = qs[0], qs[1]
	}
	return d, nil
}

// Converged reports whether every service queue's R̂ is below the given
// threshold (1.1 is the conventional cutoff).
func (d *Diagnostics) Converged(threshold float64) bool {
	for q := 1; q < len(d.RHat); q++ {
		if !(d.RHat[q] < threshold) {
			return false
		}
	}
	return true
}
