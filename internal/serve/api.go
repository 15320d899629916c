package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/trace"
)

// This file defines the wire types of the qserved HTTP API: the stream
// configuration, the NDJSON ingest record, and the immutable estimate and
// windowed-stats snapshots published by the per-stream workers.

// StreamConfig configures one event stream. The zero value of every field
// except NumQueues means "use the daemon default"; NumQueues (including
// the arrival queue q0) is required and must be at least 2. Unknown JSON
// fields are ignored, so configs that still carry the retired "workers",
// "interval_ms" and "window_sweeps" fields (older clients, older WAL
// records) decode unchanged.
type StreamConfig struct {
	// NumQueues is the number of queues including q0 (required, >= 2).
	NumQueues int `json:"num_queues"`
	// WindowTasks bounds the sliding window of sealed tasks (default 500).
	// It also caps the number of concurrently open (unsealed) tasks.
	WindowTasks int `json:"window_tasks,omitempty"`
	// MinTasks is the number of sealed tasks required before the worker
	// runs inference (default 40).
	MinTasks int `json:"min_tasks,omitempty"`
	// EMIters is the StEM iteration count of a cold epoch (default 300),
	// the first half of it burn-in, and the cap of a warm one. An epoch is
	// cold on a stream's first window. Later epochs run warm, for a number
	// of iterations proportional to the fraction of the window that slid
	// since the previous epoch, and carry the previous epoch's StEM average
	// forward. An epoch after a rebuild, or after a slide too large for the
	// warm schedule, runs rebased: it starts from that average with fresh
	// sums, burns in min(30, EMIters/2) iterations and keeps the cold
	// epoch's second half (DESIGN §16).
	EMIters int `json:"em_iters,omitempty"`
	// PostSweeps sizes each epoch's posterior pass: the fixed-rate sweeps
	// that follow the epoch's StEM phase, a fifth of them burn-in (default
	// 40). The epoch's first estimate is published before them, at the
	// sweep that finalizes the StEM phase, with means averaged over the
	// StEM iterates; each later publish of the epoch reports the means of
	// the kept posterior sweeps so far (Estimate.PostSweeps).
	PostSweeps int `json:"post_sweeps,omitempty"`
	// Windows is the number of time buckets of the windowed-stats endpoint
	// (default 6). Their per-queue means are averaged over the same kept
	// posterior sweeps as the estimate's, at no extra sweeps.
	Windows int `json:"windows,omitempty"`
	// SweepBatch caps the Gibbs sweeps one executor visit may spend on
	// the stream. 0 (the default) leaves the visit bounded by the
	// executor's wall-clock budget alone; small values interleave many
	// streams at a finer grain.
	SweepBatch int `json:"sweep_batch,omitempty"`
	// Seed seeds the stream's deterministic RNG (default 1).
	Seed uint64 `json:"seed,omitempty"`
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.WindowTasks == 0 {
		c.WindowTasks = 500
	}
	if c.MinTasks == 0 {
		c.MinTasks = 40
	}
	if c.EMIters == 0 {
		c.EMIters = 300
	}
	if c.PostSweeps == 0 {
		c.PostSweeps = 40
	}
	if c.Windows == 0 {
		c.Windows = 6
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c StreamConfig) validate() error {
	if c.NumQueues < 2 {
		return fmt.Errorf("serve: stream needs num_queues >= 2 (q0 plus a service queue), got %d", c.NumQueues)
	}
	if c.WindowTasks < c.MinTasks {
		return fmt.Errorf("serve: window_tasks %d < min_tasks %d", c.WindowTasks, c.MinTasks)
	}
	if c.MinTasks < 2 {
		return fmt.Errorf("serve: min_tasks must be >= 2, got %d", c.MinTasks)
	}
	if c.EMIters < 0 || c.PostSweeps < 0 || c.Windows < 0 || c.SweepBatch < 0 {
		return fmt.Errorf("serve: negative option in stream config")
	}
	return nil
}

// IngestEvent is one line of the NDJSON ingest body. It aliases
// trace.WireEvent — the wire format now lives next to its zero-allocation
// codec in internal/trace — so existing literal construction and the HTTP
// contract are unchanged. A task's final event carries final=true to seal
// the task into the estimation window.
type IngestEvent = trace.WireEvent

// IngestSummary is the response of POST /v1/streams/{id}/events.
type IngestSummary struct {
	Accepted    int      `json:"accepted"`
	Rejected    int      `json:"rejected"`
	SealedTasks int      `json:"sealed_tasks"`
	WindowTasks int      `json:"window_tasks"`
	OpenTasks   int      `json:"open_tasks"`
	Errors      []string `json:"errors,omitempty"`
}

// reject records one rejected line, capping the echoed error list at 5.
func (s *IngestSummary) reject(line int, err error) {
	s.Rejected++
	if len(s.Errors) < 5 {
		s.Errors = append(s.Errors, fmt.Sprintf("line %d: %v", line, err))
	}
}

// JSONFloat is a float64 that marshals NaN and ±Inf as null (encoding/json
// rejects them), so per-queue estimates for queues without events survive
// the trip over the wire.
type JSONFloat float64

// MarshalJSON emits null for non-finite values.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON maps null back to NaN.
func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = JSONFloat(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = JSONFloat(v)
	return nil
}

func toJSONFloats(xs []float64) []JSONFloat {
	out := make([]JSONFloat, len(xs))
	for i, x := range xs {
		out[i] = JSONFloat(x)
	}
	return out
}

// Estimate is the immutable snapshot served by GET /v1/streams/{id}/estimate.
// Index 0 of the per-queue slices is the arrival queue q0.
type Estimate struct {
	Stream string `json:"stream"`
	// Seq increments with every published estimate of the stream.
	Seq uint64 `json:"seq"`
	// Epoch is the stream's sealed-task count at window assembly; a client
	// that replayed T tasks knows the estimate covers them once Epoch >= T.
	Epoch uint64 `json:"epoch"`
	// Lambda is the estimated arrival rate λ̂ (Rates[0]).
	Lambda float64 `json:"lambda"`
	// Rates are the StEM rate estimates (λ, µ̂_1, ..., µ̂_n).
	Rates []float64 `json:"rates"`
	// MeanService and MeanWait are posterior means per queue; null (NaN)
	// for queues with no events in the window.
	MeanService []JSONFloat `json:"mean_service"`
	MeanWait    []JSONFloat `json:"mean_wait"`
	// Bottleneck is the service queue with the largest posterior mean
	// wait, or -1 when no queue has an estimate.
	Bottleneck int `json:"bottleneck"`
	// WindowTasks and WindowEvents size the window the estimate was
	// computed from; WindowStart/WindowEnd are its entry-time span in
	// stream time.
	WindowTasks  int     `json:"window_tasks"`
	WindowEvents int     `json:"window_events"`
	WindowStart  float64 `json:"window_start"`
	WindowEnd    float64 `json:"window_end"`
	// ComputedAt and ElapsedMS record when and how long inference ran;
	// StalenessMS is filled in at serving time.
	ComputedAt  time.Time `json:"computed_at"`
	ElapsedMS   float64   `json:"elapsed_ms"`
	StalenessMS float64   `json:"staleness_ms"`
	// Backend names the estimator that produced this snapshot:
	// "meanfield" for the deterministic fast path (a cold stream's instant
	// first answer), "gibbs" once MCMC refinement has replaced it.
	Backend string `json:"backend"`
	// EMIters is the number of StEM iterations this epoch ran, and
	// EMWeight the effective number of StEM iterates behind Rates after
	// the carried average was discounted: EMIters and its post-burn-in
	// count on a cold epoch, fewer iterations and the same weight on a
	// rebased one, fewer iterations and at least that weight on a warm one.
	// Both are omitted on mean-field publishes.
	EMIters  int     `json:"em_iters,omitempty"`
	EMWeight float64 `json:"em_weight,omitempty"`
	// PostSweeps is the number of kept posterior sweeps behind MeanService
	// and MeanWait. It is 0 on an epoch's first Gibbs publish, made at the
	// sweep that finalizes the StEM phase, whose means average the StEM
	// iterates instead, and on mean-field publishes.
	PostSweeps int `json:"post_sweeps"`
}

// Estimate backends, as reported in Estimate.Backend and on the
// qserved_backend_published_total metric.
const (
	BackendMeanField = "meanfield"
	BackendGibbs     = "gibbs"
)

// WindowCell is one queue × time-bucket summary of the windowed snapshot.
type WindowCell struct {
	Queue       int       `json:"queue"`
	Lo          float64   `json:"lo"`
	Hi          float64   `json:"hi"`
	Events      int       `json:"events"`
	MeanService JSONFloat `json:"mean_service"`
	MeanWait    JSONFloat `json:"mean_wait"`
}

// WindowsSnapshot is served by GET /v1/streams/{id}/windows: posterior
// waiting times bucketed over the window's time span — the retrospective
// "what was the bottleneck a minute ago?" view. Each publish takes the
// buckets from the same kept posterior sweeps as its Estimate.
type WindowsSnapshot struct {
	Stream string `json:"stream"`
	Seq    uint64 `json:"seq"`
	Epoch  uint64 `json:"epoch"`
	// Queues[q][w] is queue q in time bucket w (q0 included at index 0).
	Queues [][]WindowCell `json:"queues"`
	// Bottleneck[w] is the service queue with the largest mean wait in
	// bucket w (-1 when the bucket is empty).
	Bottleneck  []int     `json:"bottleneck"`
	ComputedAt  time.Time `json:"computed_at"`
	StalenessMS float64   `json:"staleness_ms"`
}

// bottleneckOf returns the index of the worst service queue by mean wait.
func bottleneckOf(meanWait []float64) int {
	best, arg := math.Inf(-1), -1
	for q := 1; q < len(meanWait); q++ {
		if w := meanWait[q]; !math.IsNaN(w) && w > best {
			best, arg = w, q
		}
	}
	return arg
}
