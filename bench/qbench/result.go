package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"

	"repro/internal/serve"
)

// metric names one reported number and its unit; BENCHMARK.json declares
// the same names with their bounds.
type metric struct{ name, unit string }

// e2eMetrics are what a user of qserved sees, each bounded in
// BENCHMARK.json. Timings come from the driver's own clocks. On coldstart
// every seal of a stream comes with its first POST, so freshness there is
// the time to a new stream's first estimate, and gibbs_freshness the time
// to its first Gibbs-refined one. gibbs_freshness is the median over
// seals, except on coldstart, where it is the mean (see gibbsFreshness).
var e2eMetrics = []metric{
	{"freshness_p50_ms", "ms"},
	{"gibbs_freshness_ms", "ms"},
	{"ingest_events_per_s", "events/s"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MiB"},
}

// tailMetrics are client-side timings every run measures and records but
// BENCHMARK.json does not bound. On two CPUs a request is answered within
// a millisecond while a core is free and waits 10–20 ms for a preemption
// while both run sweeps; the mix of the two modes spreads each of these
// percentiles by 30% or more on some workload (README.md, "Unbounded
// tails"). p90 leaves ten samples beyond it on every workload but
// coldstart, whose 40 streams a run leave four.
var tailMetrics = []metric{
	{"freshness_p90_ms", "ms"},
	{"ingest_p50_ms", "ms"},
	{"ingest_p90_ms", "ms"},
	{"estimate_get_p50_ms", "ms"},
	{"estimate_get_p90_ms", "ms"},
}

// layerMetrics are reported by traced runs; layers are named after
// modules. README.md lists the end-to-end metric each should move.
var layerMetrics = []metric{
	{"bench.late_ms_max", "ms"},
	{"bench.cpu_s", "s"},
	{"bench.posts", "count"},
	{"bench.gets", "count"},
	{"bench.seals", "count"},
	{"bench.spans_dropped", "count"},
	{"serve.ingest.server_ms_mean", "ms"},
	{"serve.ingest.decode_ns_per_event", "ns"},
	{"serve.ingest.batch_events_mean", "events"},
	{"serve.store.apply_ns_per_event", "ns"},
	{"serve.store.lock_wait_ns_per_event", "ns"},
	{"wal.append_share", "ratio"},
	{"wal.fsync_share", "ratio"},
	{"wal.fsyncs_per_post", "count"},
	{"wal.bytes_per_event", "bytes"},
	{"serve.executor.queue_wait_ms_p50", "ms"},
	{"serve.executor.queue_wait_ms_p90", "ms"},
	{"serve.executor.max_queued_ms", "ms"},
	{"serve.executor.visits", "count"},
	{"serve.executor.visit_ms_mean", "ms"},
	{"serve.executor.visit_sweeps_mean", "count"},
	{"serve.executor.busy_share", "ratio"},
	{"serve.executor.overload", "count"},
	{"core.slide.reuse_ratio", "ratio"},
	{"core.slide.rebuilds", "count"},
	{"core.slide.sync_us_mean", "us"},
	{"core.gibbs.sweeps", "count"},
	{"core.gibbs.sweep_us_mean", "us"},
	{"core.gibbs.sweep_ns_per_event", "ns"},
	{"core.gibbs.sweeps_per_seal", "count"},
	{"core.meanfield.solves", "count"},
	{"core.meanfield.solve_ms_mean", "ms"},
	{"serve.publish.gibbs", "count"},
	{"serve.publish.meanfield", "count"},
	{"serve.publish.per_seal", "count"},
	{"serve.publish.us_mean", "us"},
	{"process.cpu_util", "cpus"},
}

// chains is a traced run's attribution: how much of mean freshness and of
// the client's mean POST time the daemon's spans account for.
type chains struct {
	FreshnessChainMS      float64 `json:"freshness_chain_ms"`
	FreshnessMeanMS       float64 `json:"freshness_mean_ms"`
	FreshnessUnattributed float64 `json:"freshness_unattributed"`
	IngestServerMS        float64 `json:"ingest_server_ms"`
	IngestClientMS        float64 `json:"ingest_client_ms"`
	IngestUnattributed    float64 `json:"ingest_unattributed"`
	DecodeMS              float64 `json:"decode_ms"`
	ApplyMS               float64 `json:"apply_ms"`
	WALAppendMS           float64 `json:"wal_append_ms"`
	WALFsyncMS            float64 `json:"wal_fsync_ms"`
	CompletedChains       int     `json:"completed_chains"`
}

// result is one run's outcome.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	MaxConns  int64              `json:"max_connections"`
	E2E       map[string]float64 `json:"e2e"`
	Samples   map[string]int     `json:"samples"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Kinds     []kindStat         `json:"span_kinds,omitempty"`
	Chains    *chains            `json:"chains,omitempty"`
}

// Correctness gate tolerances against the generator's ground truth.
// λ̂ is compared with the rate the window's tasks really arrived at:
// against the nominal λ a 500-task window alone deviates by 4.5% (one
// standard deviation), enough to fail one stream in a thousand at ±15%.
// Service rates are compared per tier: a replica of the four-replica tier
// sees about 125 events of which a tenth are observed, and its own µ̂
// strays past 2× in a few streams of every hundred. The bottleneck is
// judged by the waits the window's tasks really had: at utilisation 0.8
// the busiest tier's waits swing so widely that in about one window of
// 1,500 a lighter tier's replica comes within three quarters of it, and
// the estimate may then name the replica.
const (
	lambdaTol     = 0.15 // |λ̂/λ − 1|
	muLo          = 0.5  // tier mean service time × µ, lower bound
	muHi          = 2.0  // and upper bound
	bottleneckTol = 0.5  // realized wait at the reported bottleneck / the window's largest
)

// finish runs the correctness gate on the live daemon, reads its memory
// and (traced) span ring, and assembles the result.
func (r *run) finish(ctx context.Context, setups []float64) (*result, error) {
	secs := r.cfg.measure.Seconds()
	liveEvents, withEst := 0.0, 0
	for _, s := range r.streams {
		if !s.posted {
			continue
		}
		est, err := r.gate(ctx, s)
		if err != nil {
			return nil, err
		}
		if est != nil {
			liveEvents += float64(est.WindowEvents + est.WindowTasks)
			withEst++
		}
	}
	rss, err := r.d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: r.cfg.w.name, Seed: r.cfg.seed, Seconds: secs, Traced: r.cfg.traced,
		E2E: map[string]float64{
			"freshness_p50_ms":    r.fresh.quantile(0.5),
			"gibbs_freshness_ms":  r.gibbsFreshness(),
			"ingest_events_per_s": ratio(float64(r.events), r.lastPost.Sub(r.start).Seconds()),
			"setup_s":             median(setups),
			"rss_peak_mb":         rss,
			"freshness_p90_ms":    zeroNaN(r.fresh.quantile(0.9)),
			"ingest_p50_ms":       zeroNaN(r.postLat.quantile(0.5)),
			"ingest_p90_ms":       zeroNaN(r.postLat.quantile(0.9)),
			"estimate_get_p50_ms": zeroNaN(r.getLat.quantile(0.5)),
			"estimate_get_p90_ms": zeroNaN(r.getLat.quantile(0.9)),
		},
		Samples: map[string]int{
			"seals": r.fresh.count(), "seal_groups": len(r.fresh), "gibbs_seals": r.freshGibbs.count(),
			"posts": r.postLat.count(), "gets": r.getLat.count(), "setups": len(setups),
		},
	}
	if r.cfg.traced {
		if err := r.attribute(ctx, res, ratio(liveEvents, float64(withEst))); err != nil {
			return nil, err
		}
	}
	r.mu.Lock()
	res.Attempted, res.Failed, res.Failures = r.attempted, r.failed, r.failures
	r.mu.Unlock()
	res.MaxConns = max(r.maxConns, r.dials.Load())
	res.Correct = res.Failed == 0
	for _, m := range e2eMetrics {
		if v := res.E2E[m.name]; math.IsNaN(v) || v <= 0 {
			res.Correct = false
			res.Failures = append(res.Failures, fmt.Sprintf("%s is %v: too few samples", m.name, v))
		}
	}
	return res, nil
}

// gibbsFreshness is the median Gibbs freshness over seals. On coldstart
// it is the mean: a new stream's first Gibbs estimate is published at the
// end of a 50 ms visit, so its time falls on a 50 ms lattice, and the
// median of such times jumps by a whole visit when the streams near the
// middle cross a lattice point. Over windows spread across more than one
// visit's worth of sweeps, the mean moves in proportion to sweep speed.
func (r *run) gibbsFreshness() float64 {
	if r.cfg.w.shape == coldStart {
		return r.freshGibbs.mean()
	}
	return r.freshGibbs.quantile(0.5)
}

// gate checks one stream after the drain: every sealed task is covered by
// a Gibbs estimate, λ̂ is within lambdaTol of the window's realized
// arrival rate, each tier's mean service time (mean of 1/µ̂ over its
// replicas) is within [muLo, muHi]× the true 1/µ, and the window's tasks
// really waited at the reported bottleneck at least bottleneckTol as long
// as at their worst queue. Each check is one attempted operation; a miss
// is a failure.
func (r *run) gate(ctx context.Context, s *streamState) (*serve.Estimate, error) {
	r.mu.Lock()
	uncovered := 0
	for _, b := range s.pending {
		uncovered += b.n
	}
	r.attempted++
	if uncovered > 0 {
		r.failLocked("gate: %s has %d sealed tasks no Gibbs estimate covers after the drain", s.id, uncovered)
	}
	r.mu.Unlock()

	status, body, err := r.poller.do(ctx, http.MethodGet, "/v1/streams/"+s.id+"/estimate", nil)
	if err != nil {
		return nil, fmt.Errorf("gate: GET %s: %w", s.id, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += 2 + len(r.cfg.w.tiers) // λ̂, bottleneck, one per tier
	var est serve.Estimate
	if status != http.StatusOK || json.Unmarshal(body, &est) != nil {
		r.failLocked("gate: %s has no estimate: HTTP %d %s", s.id, status, body)
		return nil, nil
	}
	tiers := r.cfg.w.tierQueues()
	if len(est.Rates) != r.cfg.w.numQueues() {
		r.failLocked("gate: %s estimate has %d rates, want %d", s.id, len(est.Rates), r.cfg.w.numQueues())
		return &est, nil
	}
	truth := s.realizedLambda()
	if math.Abs(est.Lambda/truth-1) > lambdaTol {
		r.failLocked("gate: %s λ̂ = %.3f, window's realized λ = %.3f ± %.0f%%", s.id, est.Lambda, truth, lambdaTol*100)
	}
	for t, qs := range tiers {
		meanSvc := 0.0
		for _, q := range qs {
			meanSvc += 1 / est.Rates[q] / float64(len(qs))
		}
		if x := meanSvc * mu; !(x >= muLo && x <= muHi) {
			r.failLocked("gate: %s tier %d mean service %.3f, want within [%.1f, %.1f]×%.2f", s.id, t, meanSvc, muLo, muHi, 1/mu)
		}
	}
	waits := s.realizedWaits(len(est.Rates))
	worst := 1
	for q := 1; q < len(waits); q++ {
		if waits[q] > waits[worst] {
			worst = q
		}
	}
	if b := est.Bottleneck; b < 1 || b >= len(waits) || !(waits[b] >= bottleneckTol*waits[worst]) {
		r.failLocked("gate: %s names q%d the bottleneck; the window's tasks waited longest at q%d (%.3f s)", s.id, b, worst, waits[worst])
	}
	return &est, nil
}

// attribute reads the span ring after the drain and fills the per-layer
// metrics, the per-kind span table and the attribution chains.
func (r *run) attribute(ctx context.Context, res *result, liveEvents float64) error {
	status, body, err := r.poller.do(ctx, http.MethodGet, "/metrics.json", nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("GET /metrics.json: %d %v", status, err)
	}
	now, err := parseScrape(body)
	if err != nil {
		return err
	}
	spans, err := r.spans(ctx)
	if err != nil {
		return err
	}
	// Spans recorded since the phase began beyond the ring's capacity
	// overwrote spans of the phase.
	dropped := math.Max(0, now.value("qserved_trace_spans_recorded")-r.first.value("qserved_trace_spans_recorded")-traceRing)
	st := analyzeSpans(spans, r.start.UnixNano(), r.end.UnixNano())
	res.Layers = r.layerMetrics(st, liveEvents, dropped)
	res.Kinds = st.sorted()
	posts := float64(st.count(kindIngest))
	c := &chains{
		FreshnessChainMS: st.chain.mean(),
		FreshnessMeanMS:  r.freshGibbs.mean(), // a chain ends at the Gibbs publish
		IngestServerMS:   ratio(st.totalMS(kindIngest), posts),
		IngestClientMS:   r.postSendLat.mean(),
		DecodeMS:         ratio(st.selfMS(kindIngest), posts),
		ApplyMS:          ratio(st.selfMS(kindBatch), posts),
		WALAppendMS:      ratio(st.totalMS(kindWALAppend), posts),
		WALFsyncMS:       ratio(st.totalMS(kindWALFsync), posts),
		CompletedChains:  st.chain.count(),
	}
	c.FreshnessUnattributed = 1 - c.FreshnessChainMS/c.FreshnessMeanMS
	c.IngestUnattributed = 1 - c.IngestServerMS/c.IngestClientMS
	res.Chains = c
	return nil
}

// contractLine is the one-line result the benchmark contract asks for:
// the end-to-end metrics of an untraced run, or the per-layer metrics of
// a traced one, each with its unit.
func (res *result) contractLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := e2eMetrics, res.E2E
	if res.Traced {
		defs, vals = layerMetrics, res.Layers
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range defs {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no NaN; finish already marked the run incorrect
		}
		out.Metrics[m.name] = value{v, m.unit}
	}
	return json.Marshal(out)
}

// print writes a readable account of the run.
func (res *result) print(w io.Writer) {
	verdict := "correct"
	if !res.Correct {
		verdict = "INCORRECT"
	}
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "qbench %s seed=%d %gs %s: %s, %d operations, %d failed, %d connections\n",
		res.Workload, res.Seed, res.Seconds, mode, verdict, res.Attempted, res.Failed, res.MaxConns)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	keys := make([]string, 0, len(res.Samples))
	for k := range res.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "  samples:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%d", k, res.Samples[k])
	}
	fmt.Fprintln(w)
	for _, m := range e2eMetrics {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.name, res.E2E[m.name], m.unit)
	}
	for _, m := range tailMetrics {
		fmt.Fprintf(w, "  %-36s %14.4f %s (unbounded)\n", m.name, res.E2E[m.name], m.unit)
	}
	if !res.Traced {
		return
	}
	for _, m := range layerMetrics {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.name, res.Layers[m.name], m.unit)
	}
	fmt.Fprintf(w, "  %-16s %8s %12s %12s %12s\n", "span kind", "count", "total ms", "self ms", "self us/span")
	for _, k := range res.Kinds {
		fmt.Fprintf(w, "  %-16s %8d %12.1f %12.1f %12.1f\n", k.Kind, k.Count, k.TotalMS, k.SelfMS, 1e3*k.SelfMS/float64(k.Count))
	}
	c := res.Chains
	fmt.Fprintf(w, "  freshness chain: queue.wait+sync+sweeps+publish %.2f ms of mean Gibbs freshness %.2f ms (%d chains): %.1f%% unattributed\n",
		c.FreshnessChainMS, c.FreshnessMeanMS, c.CompletedChains, 100*c.FreshnessUnattributed)
	fmt.Fprintf(w, "  ingest chain: server span %.3f ms (decode %.3f, apply %.3f, wal.append %.3f, wal.fsync %.3f) of client POST %.3f ms: %.1f%% unattributed\n",
		c.IngestServerMS, c.DecodeMS, c.ApplyMS, c.WALAppendMS, c.WALFsyncMS, c.IngestClientMS, 100*c.IngestUnattributed)
}
