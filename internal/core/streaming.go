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
	// Every block's StEM and posterior pass share one sampler scratch and
	// one summary; the loop is serial, so the reuse is safe.
	var (
		scratch GibbsScratch
		sum     PosteriorSummary
		warm    *Params
		out     []BlockEstimate
	)
	for b := 0; b < opts.Blocks; b++ {
		from := b * es.NumTasks / opts.Blocks
		to := (b + 1) * es.NumTasks / opts.Blocks
		sub, err := es.SubsetTasks(from, to)
		if err != nil {
			return nil, err
		}
		startTime := sub.TaskEntry(0)
		endTime := sub.TaskEntry(sub.NumTasks - 1)
		blockRNG := rng.Split()
		if err := ShiftTowardZero(sub); err != nil {
			return nil, fmt.Errorf("core: block %d: %w", b, err)
		}
		emOpts := opts.EM
		emOpts.Scratch = &scratch
		if warm != nil {
			emOpts.InitialParams = warm
		}
		emRes, err := StEM(sub, blockRNG, emOpts)
		if err != nil {
			return nil, fmt.Errorf("core: block %d: %w", b, err)
		}
		postOpts := PosteriorOptions{Sweeps: opts.PostSweeps, Scratch: &scratch}
		if err := PosteriorInto(&sum, sub, emRes.Params, blockRNG, postOpts); err != nil {
			return nil, fmt.Errorf("core: block %d: %w", b, err)
		}
		warm = &emRes.Params // StEM clones InitialParams; no copy needed
		out = append(out, BlockEstimate{
			FromTask:  from,
			ToTask:    to,
			StartTime: startTime,
			EndTime:   endTime,
			Params:    emRes.Params,
			// The summary is reused across blocks; copy what the
			// BlockEstimate retains.
			MeanWait: append([]float64(nil), sum.MeanWait...),
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
