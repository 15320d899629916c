package core

import (
	"fmt"
	"math"

	"repro/internal/trace"
	"repro/internal/xrand"
)

// Streaming (mini-batch) estimation — the paper's "online, distributed
// inference" direction in its simplest useful form: tasks are processed in
// consecutive blocks by entry order; each block is estimated with StEM
// warm-started from the previous block's parameters, yielding a time
// series of rate estimates that tracks non-stationary workloads (the
// ramped web application, workload spikes) without ever holding the whole
// trace in one sampler.

// BlockEstimate is the estimate for one task block.
type BlockEstimate struct {
	// FromTask and ToTask bound the block (task indices, end exclusive).
	FromTask, ToTask int
	// StartTime and EndTime are the entry times of the block's first and
	// last tasks.
	StartTime, EndTime float64
	// Params is the block's StEM estimate.
	Params Params
	// MeanWait is the block's posterior mean waiting time per queue.
	MeanWait []float64
}

// StreamingOptions configures StreamingEstimate.
type StreamingOptions struct {
	// Blocks is the number of consecutive task blocks (required, >= 1).
	Blocks int
	// EM configures the per-block StEM runs (warm starts override
	// InitialParams after the first block).
	EM EMOptions
	// PostSweeps sizes the per-block posterior pass (default 30).
	PostSweeps int
}

// OnlineEstimator estimates successive windows of an event stream,
// warm-starting each StEM run from the previous window's estimate. It is
// the reusable hook behind StreamingEstimate (consecutive blocks of one
// trace). It is not safe for concurrent use; serialize calls per stream.
type OnlineEstimator struct {
	// EM configures every StEM run. InitialParams seeds only the first
	// window; later windows warm-start from their predecessor's estimate.
	EM EMOptions
	// Post sizes the per-window posterior pass.
	Post PosteriorOptions

	warm *Params
	// sum is the reused posterior summary handed out by Estimate.
	sum PosteriorSummary
	// scratch is the sampler construction state reused by every window's
	// StEM and posterior pass (EM.Scratch/Post.Scratch are overridden with
	// it). One scratch per estimator is safe because the estimator is
	// already serialized per stream.
	scratch GibbsScratch
}

// NewOnlineEstimator returns an estimator with the given per-window
// options and no warm-start state.
func NewOnlineEstimator(em EMOptions, post PosteriorOptions) *OnlineEstimator {
	return &OnlineEstimator{EM: em, Post: post}
}

// WarmParams returns a copy of the parameters the next Estimate call will
// warm-start from, or nil before the first call (or after Reset).
func (o *OnlineEstimator) WarmParams() *Params {
	if o.warm == nil {
		return nil
	}
	w := o.warm.Clone()
	return &w
}

// Reset discards the parameter warm start, so the next window is
// estimated from scratch (EM.InitialParams or InitialRates). Use it after
// a stream gap: rates carried across a long silence would anchor the new
// window's chain to stale state.
func (o *OnlineEstimator) Reset() {
	o.warm = nil
}

// Estimate shifts the window toward time zero, runs StEM (warm-started
// when a previous estimate exists) and the fixed-parameter posterior pass,
// and records the new estimate as the next warm start. The event set is
// mutated in place (shifted, then imputed).
//
// The returned summary is owned by the estimator and reused: it is valid
// until the next Estimate call. Callers that retain any of its slices past
// that point must copy them.
func (o *OnlineEstimator) Estimate(es *trace.EventSet, rng *xrand.RNG) (*EMResult, *PosteriorSummary, error) {
	if err := ShiftTowardZero(es); err != nil {
		return nil, nil, err
	}
	emOpts := o.EM
	emOpts.Scratch = &o.scratch
	if o.warm != nil {
		w := o.warm.Clone()
		emOpts.InitialParams = &w
	}
	emRes, err := StEM(es, rng, emOpts)
	if err != nil {
		return nil, nil, err
	}
	postOpts := o.Post
	postOpts.Scratch = &o.scratch
	if err := PosteriorInto(&o.sum, es, emRes.Params, rng, postOpts); err != nil {
		return nil, nil, err
	}
	w := emRes.Params.Clone()
	o.warm = &w
	return emRes, &o.sum, nil
}

// ShiftTowardZero translates a window cut from a longer trace so that the
// first task's interarrival gap is a typical one rather than the offset of
// the whole window — otherwise the window's λ̂ is diluted by the time
// before it. The shift lands the first entry on the window's mean
// interarrival gap (non-negative by construction, so TimeShift cannot
// underflow), and windows already starting near zero are left alone.
func ShiftTowardZero(es *trace.EventSet) error {
	if es.NumTasks == 0 {
		return nil
	}
	startTime := es.TaskEntry(0)
	endTime := es.TaskEntry(es.NumTasks - 1)
	gap := 0.0
	if es.NumTasks > 1 {
		gap = (endTime - startTime) / float64(es.NumTasks-1)
	}
	if delta := gap - startTime; delta < 0 {
		return es.TimeShift(delta)
	}
	return nil
}

// StreamingEstimate splits the trace into consecutive task blocks and
// estimates each one, warm-starting from its predecessor.
func StreamingEstimate(es *trace.EventSet, rng *xrand.RNG, opts StreamingOptions) ([]BlockEstimate, error) {
	if opts.Blocks < 1 {
		return nil, fmt.Errorf("core: streaming needs >= 1 block, got %d", opts.Blocks)
	}
	if opts.Blocks > es.NumTasks {
		return nil, fmt.Errorf("core: %d blocks for %d tasks", opts.Blocks, es.NumTasks)
	}
	if opts.PostSweeps == 0 {
		opts.PostSweeps = 30
	}
	est := NewOnlineEstimator(opts.EM, PosteriorOptions{Sweeps: opts.PostSweeps})
	var out []BlockEstimate
	for b := 0; b < opts.Blocks; b++ {
		from := b * es.NumTasks / opts.Blocks
		to := (b + 1) * es.NumTasks / opts.Blocks
		sub, err := es.SubsetTasks(from, to)
		if err != nil {
			return nil, err
		}
		startTime := sub.TaskEntry(0)
		endTime := sub.TaskEntry(sub.NumTasks - 1)
		emRes, post, err := est.Estimate(sub, rng.Split())
		if err != nil {
			return nil, fmt.Errorf("core: block %d: %w", b, err)
		}
		out = append(out, BlockEstimate{
			FromTask:  from,
			ToTask:    to,
			StartTime: startTime,
			EndTime:   endTime,
			Params:    emRes.Params,
			// The estimator reuses its summary across blocks; copy what the
			// BlockEstimate retains.
			MeanWait: append([]float64(nil), post.MeanWait...),
		})
	}
	return out, nil
}

// PosteriorWindows runs the Gibbs sampler with fixed parameters and
// averages time-windowed per-queue waiting times over the post-burn-in
// sweeps: the retrospective "what was the bottleneck five minutes ago?"
// analysis. Windows partition [lo, hi) into n equal intervals by event
// arrival time. Entries for queue/window cells that never contain events
// are NaN.
func PosteriorWindows(es *trace.EventSet, params Params, rng *xrand.RNG, opts PosteriorOptions, lo, hi float64, n int) ([][]trace.WindowStats, error) {
	opts = opts.withDefaults()
	if opts.BurnIn >= opts.Sweeps {
		return nil, fmt.Errorf("core: burn-in %d >= sweeps %d", opts.BurnIn, opts.Sweeps)
	}
	g, err := newGibbs(es, params, rng, opts.Scratch)
	if err != nil {
		return nil, err
	}
	var acc [][]trace.WindowStats
	counts := make([][]int, 0)
	for sweep := 0; sweep < opts.Sweeps; sweep++ {
		g.Sweep()
		if sweep < opts.BurnIn {
			continue
		}
		ws, err := es.WindowedStats(lo, hi, n)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = make([][]trace.WindowStats, len(ws))
			counts = make([][]int, len(ws))
			for q := range ws {
				acc[q] = make([]trace.WindowStats, n)
				counts[q] = make([]int, n)
				for w := range ws[q] {
					acc[q][w] = trace.WindowStats{Queue: q, Lo: ws[q][w].Lo, Hi: ws[q][w].Hi}
				}
			}
		}
		for q := range ws {
			for w := range ws[q] {
				cell := ws[q][w]
				if cell.Events == 0 || math.IsNaN(cell.MeanWait) {
					continue
				}
				acc[q][w].Events += cell.Events
				acc[q][w].MeanService += cell.MeanService
				acc[q][w].MeanWait += cell.MeanWait
				counts[q][w]++
			}
		}
	}
	for q := range acc {
		for w := range acc[q] {
			if counts[q][w] == 0 {
				acc[q][w].MeanService = math.NaN()
				acc[q][w].MeanWait = math.NaN()
				continue
			}
			c := float64(counts[q][w])
			acc[q][w].MeanService /= c
			acc[q][w].MeanWait /= c
			// Events is an int, so the per-sweep average (over the sweeps
			// that populated the cell) is rounded to nearest rather than
			// truncated toward zero.
			acc[q][w].Events = int(math.Round(float64(acc[q][w].Events) / c))
		}
	}
	return acc, nil
}
