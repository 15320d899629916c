package core

import (
	"fmt"
	"math"

	"repro/internal/trace"
	"repro/internal/xrand"
)

// NoBurnIn is the sentinel for "really use zero burn-in" in
// PosteriorOptions.BurnIn and EMOptions.BurnIn, whose zero value selects
// the default burn-in instead.
const NoBurnIn = -1

// PosteriorOptions configures posterior summarization with fixed
// parameters.
type PosteriorOptions struct {
	// Sweeps is the number of Gibbs sweeps to average over (default 50).
	Sweeps int
	// BurnIn sweeps are discarded first. The zero value selects the
	// default Sweeps/5; pass NoBurnIn (-1) to keep every sweep.
	BurnIn int
	// DebugStats cross-checks the incremental per-queue statistics
	// against a full rescan after every sweep (slow; for tests and
	// debugging).
	DebugStats bool
	// Scratch, when non-nil, donates reusable sampler construction state
	// so a steady-state caller pays no per-call move-list allocations. The
	// chain is bit-identical with or without a scratch. A scratch
	// serializes the samplers built from it; see GibbsScratch.
	Scratch *GibbsScratch
}

func (o PosteriorOptions) withDefaults() PosteriorOptions {
	if o.Sweeps == 0 {
		o.Sweeps = 50
	}
	switch {
	case o.BurnIn < 0:
		o.BurnIn = 0
	case o.BurnIn == 0:
		o.BurnIn = o.Sweeps / 5
	}
	return o
}

// PosteriorSummary holds posterior-mean estimates of the per-queue
// quantities the paper reports, plus chains for diagnostics.
type PosteriorSummary struct {
	// MeanService[q] is the posterior mean of the average service time of
	// the events at queue q (for q0, the mean interarrival gap).
	MeanService []float64
	// MeanWait[q] is the posterior mean of the average waiting time at
	// queue q — the quantity used to localize load-induced bottlenecks.
	MeanWait []float64
	// WaitChain[q] is the per-sweep trajectory of the queue-q mean wait
	// (for ESS/R-hat diagnostics).
	WaitChain [][]float64
	// Sweeps actually averaged.
	Sweeps int

	// svc and wait are the per-sweep accumulation scratch, kept on the
	// summary so PosteriorInto reuses them across calls.
	svc, wait []float64
}

// resizeFloats returns b resized to n zeroed entries, reusing its backing
// array when the capacity allows.
func resizeFloats(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = 0
	}
	return b
}

// Posterior runs the Gibbs sampler with the given fixed parameters and
// averages per-queue mean service and waiting times over sweeps. This is
// the paper's procedure for waiting-time estimation: "an estimate of the
// waiting time can be obtained by running the Gibbs sampler with µ̂ fixed."
// The event set must already be feasible (e.g. the state left by StEM).
//
// Per-sweep queue summaries come from the sampler's incremental sufficient
// statistics — O(queues) per kept sweep instead of a full O(events)
// rescan; set DebugStats to cross-check them against the rescan.
func Posterior(es *trace.EventSet, params Params, rng *xrand.RNG, opts PosteriorOptions) (*PosteriorSummary, error) {
	sum := &PosteriorSummary{}
	if err := PosteriorInto(sum, es, params, rng, opts); err != nil {
		return nil, err
	}
	return sum, nil
}

// PosteriorInto is Posterior with caller-owned result storage: it fills sum
// in place, reusing its MeanService/MeanWait/WaitChain backings (and the
// internal scratch) from earlier calls. A steady-state caller — the online
// estimator re-running every window, or a benchmark loop — pays no per-call
// summary allocations once the buffers have grown to size. The previous
// contents of sum are overwritten; slices handed out from an earlier call
// must not be retained across calls.
func PosteriorInto(sum *PosteriorSummary, es *trace.EventSet, params Params, rng *xrand.RNG, opts PosteriorOptions) error {
	opts = opts.withDefaults()
	if opts.BurnIn >= opts.Sweeps {
		return fmt.Errorf("core: burn-in %d >= sweeps %d", opts.BurnIn, opts.Sweeps)
	}
	g, err := newGibbs(es, params, rng, opts.Scratch)
	if err != nil {
		return err
	}
	g.EnableQueueStats()
	nq := es.NumQueues
	kept := opts.Sweeps - opts.BurnIn
	sum.MeanService = resizeFloats(sum.MeanService, nq)
	sum.MeanWait = resizeFloats(sum.MeanWait, nq)
	if cap(sum.WaitChain) < nq {
		sum.WaitChain = make([][]float64, nq)
	} else {
		sum.WaitChain = sum.WaitChain[:nq]
	}
	// Queues with no events never get chain entries; leave their slots nil
	// rather than allocating always-empty slices.
	for q := 0; q < nq; q++ {
		if len(es.ByQueue[q]) == 0 {
			sum.WaitChain[q] = nil
			continue
		}
		if c := sum.WaitChain[q]; cap(c) >= kept {
			sum.WaitChain[q] = c[:0]
		} else {
			sum.WaitChain[q] = make([]float64, 0, kept)
		}
	}
	sum.svc = resizeFloats(sum.svc, nq)
	sum.wait = resizeFloats(sum.wait, nq)
	svc, wait := sum.svc, sum.wait
	for sweep := 0; sweep < opts.Sweeps; sweep++ {
		g.Sweep()
		if opts.DebugStats {
			if err := g.CheckQueueStats(1e-9); err != nil {
				return err
			}
		}
		if sweep < opts.BurnIn {
			continue
		}
		g.QueueMeansInto(svc, wait)
		for q := 0; q < nq; q++ {
			if len(es.ByQueue[q]) == 0 {
				continue
			}
			sum.MeanService[q] += svc[q]
			sum.MeanWait[q] += wait[q]
			sum.WaitChain[q] = append(sum.WaitChain[q], wait[q])
		}
	}
	for q := 0; q < nq; q++ {
		if len(es.ByQueue[q]) == 0 {
			sum.MeanService[q] = math.NaN()
			sum.MeanWait[q] = math.NaN()
			continue
		}
		sum.MeanService[q] /= float64(kept)
		sum.MeanWait[q] /= float64(kept)
	}
	sum.Sweeps = kept
	return nil
}

// Estimate is the complete pipeline the paper evaluates: StEM for the
// rates, then the posterior pass with the estimated rates fixed. It returns
// both the EM result and the posterior summary.
func Estimate(es *trace.EventSet, rng *xrand.RNG, em EMOptions, post PosteriorOptions) (*EMResult, *PosteriorSummary, error) {
	emRes, err := StEM(es, rng, em)
	if err != nil {
		return nil, nil, err
	}
	sum, err := Posterior(es, emRes.Params, rng, post)
	if err != nil {
		return emRes, nil, err
	}
	return emRes, sum, nil
}

// BaselineObservedServiceMeans is the paper's §5.1 comparison estimator:
// the sample mean of the *true* service times of observed tasks' events,
// per queue. It requires the ground-truth event set (the baseline uses
// information unavailable to StEM, as the paper notes) and the ids of the
// observed tasks. Queues with no observed events yield NaN.
func BaselineObservedServiceMeans(truth *trace.EventSet, observedTasks []int) []float64 {
	// Dense flag lookup: task ids are [0, NumTasks), and this sits inside
	// the per-event loop below.
	obs := make([]bool, truth.NumTasks)
	for _, k := range observedTasks {
		obs[k] = true
	}
	sums := make([]float64, truth.NumQueues)
	counts := make([]int, truth.NumQueues)
	for i := range truth.Events {
		e := &truth.Events[i]
		if !obs[e.Task] {
			continue
		}
		sums[e.Queue] += truth.ServiceTime(i)
		counts[e.Queue]++
	}
	out := make([]float64, truth.NumQueues)
	for q := range out {
		if counts[q] == 0 {
			out[q] = math.NaN()
		} else {
			out[q] = sums[q] / float64(counts[q])
		}
	}
	return out
}
