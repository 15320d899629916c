package serve

import (
	"math"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// serverMetrics is the daemon-wide telemetry: one obs.Registry exposed at
// GET /metrics (Prometheus text format) and GET /metrics.json, fed by
// lock-free instruments on the ingest and inference hot paths.
type serverMetrics struct {
	reg *obs.Registry

	// ingestLatency times each POST /events request end to end.
	ingestLatency *obs.Histogram
	// batchEvents is the size distribution of store-application batches
	// (events applied per store-lock acquisition).
	batchEvents *obs.Histogram
	// ingestBytes counts NDJSON body bytes read by the ingest endpoint.
	ingestBytes *obs.Counter
	// lockWait[i] accumulates nanoseconds ingest batches spent acquiring
	// store locks of streams in registry shard i — a direct read on how
	// contended each shard's streams are.
	lockWait [numStreamShards]*obs.Counter
	// estimateLatency times each inference visit (a budgeted slice of
	// sweeps), including failed ones.
	estimateLatency *obs.Histogram
	// visitSweeps is the distribution of sweeps actually spent per
	// executor visit — the realized sweep budget after the deadline and
	// the stream's SweepBatch cap.
	visitSweeps *obs.Histogram
	// overload counts streams shed from the executor's bounded queue
	// (re-admitted later by the scanner).
	overload *obs.Counter
	// rebuilds counts cold window rebuilds: a stream fell
	// more than one window behind, a slide was infeasible, or a panic
	// poisoned the window.
	rebuilds *obs.Counter
	// slideNew accumulates events appended by incremental window slides;
	// slideWindow accumulates the live window size at each sync. Their
	// ratio is the slide-reuse gauge: new << window means slides reuse
	// almost all prior latent state.
	slideNew    *obs.Counter
	slideWindow *obs.Counter
	// sweep times every stream's Gibbs sweeps, one observation per sweep.
	sweep *obs.Histogram
	// publishedMeanField / publishedGibbs count published snapshots by the
	// backend that produced them (qserved_backend_published_total): the
	// mean-field count is the fast path's hit rate, and their ratio shows
	// how much of the serving surface is still awaiting MCMC refinement.
	publishedMeanField *obs.Counter
	publishedGibbs     *obs.Counter
	// meanFieldSolve times each deterministic mean-field solve (the
	// window copy excluded) — the realized time-to-first-estimate of the
	// fast path.
	meanFieldSolve *obs.Histogram

	// Daemon totals, folded in by the fan-in collector.
	estimates      *obs.Counter
	estimateErrors *obs.Counter
	sweeps         *obs.Counter
}

func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		ingestLatency: reg.Histogram("qserved_ingest_request_seconds",
			"Latency of POST /v1/streams/{id}/events requests.", obs.LatencyBuckets()),
		batchEvents: reg.Histogram("qserved_ingest_batch_events",
			"Events applied to a stream store per batch (one lock acquisition each).",
			obs.ExpBuckets(1, 2, 15)),
		ingestBytes: reg.Counter("qserved_ingest_bytes_total",
			"NDJSON body bytes read by POST /v1/streams/{id}/events."),
		estimateLatency: reg.Histogram("qserved_estimate_seconds",
			"Latency of one inference visit (one budgeted sweep slice).", obs.LatencyBuckets()),
		visitSweeps: reg.Histogram("qserved_inference_visit_sweeps",
			"Gibbs sweeps spent per executor visit.", obs.ExpBuckets(1, 2, 12)),
		overload: reg.Counter("qserved_inference_overload_total",
			"Streams shed from the bounded inference queue under overload."),
		rebuilds: reg.Counter("qserved_inference_rebuilds_total",
			"Cold window rebuilds on the incremental path (gap, infeasible slide, or poisoned window)."),
		slideNew: reg.Counter("qserved_slide_new_events_total",
			"Events appended by incremental window slides."),
		slideWindow: reg.Counter("qserved_slide_window_events_total",
			"Live window events at each incremental sync."),
		sweep: reg.Histogram("qserved_sweep_seconds",
			"Gibbs sweep wall time in seconds.", obs.ExpBuckets(1e-5, 2.5, 14)),
		publishedMeanField: reg.Counter("qserved_backend_published_total",
			"Estimate snapshots published, by producing backend.",
			obs.L("backend", BackendMeanField)),
		publishedGibbs: reg.Counter("qserved_backend_published_total",
			"Estimate snapshots published, by producing backend.",
			obs.L("backend", BackendGibbs)),
		meanFieldSolve: reg.Histogram("qserved_meanfield_solve_seconds",
			"Latency of one deterministic mean-field solve (fast-path time-to-first-estimate).",
			obs.LatencyBuckets()),
		estimates: reg.Counter("qserved_estimates_total",
			"Estimates published across all streams."),
		estimateErrors: reg.Counter("qserved_estimate_errors_total",
			"Estimation passes that failed across all streams."),
		sweeps: reg.Counter("qserved_sweeps_total",
			"Gibbs sweeps run across all streams."),
	}
	reg.GaugeFunc("qserved_slide_reuse_ratio",
		"Fraction of the window's latent state reused per incremental slide (1 - new/window, clamped to [0,1]; NaN until a sync has run).",
		func() float64 {
			window := float64(m.slideWindow.Value())
			if window <= 0 {
				return math.NaN()
			}
			r := 1 - float64(m.slideNew.Value())/window
			return math.Max(0, math.Min(1, r))
		})
	reg.GaugeFunc("qserved_uptime_seconds",
		"Seconds since the daemon started.",
		func() float64 { return time.Since(s.start).Seconds() })
	// s.tracer is installed before newServerMetrics runs and never
	// reassigned, so these closures read an effectively-final field.
	reg.GaugeFunc("qserved_trace_sample_every",
		"Current trace sampling rate (every nth ingest request; 0 = off).",
		func() float64 { return float64(s.tracer.SampleEvery()) })
	reg.GaugeFunc("qserved_trace_spans_recorded",
		"Spans recorded over the daemon's lifetime (the ring retains the most recent ones).",
		func() float64 { return float64(s.tracer.Recorded()) })
	reg.GaugeFunc("qserved_streams",
		"Number of configured streams.",
		func() float64 { return float64(s.registry.len()) })
	for i := range m.lockWait {
		m.lockWait[i] = reg.Counter("qserved_ingest_lock_wait_nanos_total",
			"Nanoseconds ingest batches spent waiting to acquire store locks, by registry shard.",
			obs.L("shard", strconv.Itoa(i)))
	}
	return m
}

// streamMetrics is one stream's instrument block: ingest/inference counters
// (also surfaced under /varz) plus per-queue posterior gauges. Counters live
// in the shared registry with a stream label, so /metrics gets them for
// free and /varz reads the same atomics — no double counting.
type streamMetrics struct {
	EventsIngested *obs.Counter
	EventsRejected *obs.Counter
	TasksSealed    *obs.Counter
	Estimates      *obs.Counter
	EstimateErrors *obs.Counter
	SkippedRuns    *obs.Counter
	SweepsRun      *obs.Counter

	// Freshness accounting (DESIGN.md §17): Freshness is the seal→publish
	// latency of each sealed task, recorded exactly once by the first
	// estimate that covers its epoch. FreshnessBreach counts tasks whose
	// latency exceeded the -freshness-slo-ms objective; FreshnessLost
	// counts tasks whose seal time was unavailable at publish (seal ring
	// overwritten, or the store was restored from a snapshot).
	Freshness       *obs.Histogram
	FreshnessBreach *obs.Counter
	FreshnessLost   *obs.Counter

	// Per-queue posterior gauges (index q-1 for service queue q), updated
	// by the worker after each published estimate. NaN until the first
	// estimate lands.
	meanService []*obs.FloatGauge
	meanWait    []*obs.FloatGauge
	ess         []*obs.FloatGauge
	rhat        []*obs.FloatGauge
	// divergence is |mean-field − Gibbs| per-queue mean wait, set once both
	// backends have produced an estimate for the stream (NaN before then) —
	// the live read on how far the fast path's approximation sits from the
	// refined posterior.
	divergence []*obs.FloatGauge

	// varz is this stream's reused /varz block (guarded by Server.varzMu):
	// scrapes refresh values in place instead of allocating fresh maps.
	varz map[string]any
}

// newStreamMetrics registers one stream's instruments. Stream ids are
// registered at most once per Server lifetime (streams cannot be deleted),
// so the registry's duplicate panic cannot fire.
func newStreamMetrics(s *Server, st *stream) *streamMetrics {
	reg := s.metrics.reg
	lbl := obs.L("stream", st.id)
	m := &streamMetrics{
		EventsIngested: reg.Counter("qserved_stream_events_ingested_total",
			"Events accepted into the stream's window.", lbl),
		EventsRejected: reg.Counter("qserved_stream_events_rejected_total",
			"Ingested events rejected by validation.", lbl),
		TasksSealed: reg.Counter("qserved_stream_tasks_sealed_total",
			"Tasks sealed (final event seen).", lbl),
		Estimates: reg.Counter("qserved_stream_estimates_total",
			"Estimates published for the stream.", lbl),
		EstimateErrors: reg.Counter("qserved_stream_estimate_errors_total",
			"Estimation passes that failed for the stream.", lbl),
		SkippedRuns: reg.Counter("qserved_stream_skipped_runs_total",
			"Estimation wake-ups skipped (window unchanged or too small).", lbl),
		SweepsRun: reg.Counter("qserved_stream_sweeps_total",
			"Gibbs sweeps run for the stream.", lbl),
		Freshness: reg.Histogram("qserved_freshness_seconds",
			"Seal-to-publish latency of each sealed task (recorded once, at the first covering estimate).",
			obs.ExpBuckets(1e-3, 2.5, 16), lbl),
		FreshnessBreach: reg.Counter("qserved_freshness_slo_breach_total",
			"Sealed tasks whose seal-to-publish latency exceeded the freshness SLO.", lbl),
		FreshnessLost: reg.Counter("qserved_freshness_lost_total",
			"Sealed tasks whose seal time was unavailable at publish (ring overwritten or snapshot-restored).", lbl),
		varz: make(map[string]any, 16),
	}
	reg.GaugeFunc("qserved_freshness_slo_attainment",
		"Fraction of freshness-recorded tasks published within the SLO (NaN with no SLO configured or no data yet).",
		func() float64 {
			if s.freshnessSLO <= 0 {
				return math.NaN()
			}
			count := float64(m.Freshness.Count())
			if count == 0 {
				return math.NaN()
			}
			return 1 - float64(m.FreshnessBreach.Value())/count
		}, lbl)
	reg.GaugeFunc("qserved_stream_freshness_lag_seconds",
		"Age of the oldest sealed task not yet covered by a published estimate (0 when fully published).",
		func() float64 {
			var published uint64
			if est := st.estimate.Load(); est != nil {
				published = est.Epoch
			}
			sealNS := st.store.oldestUnpublishedSeal(published)
			if sealNS == 0 {
				return 0
			}
			lag := float64(time.Now().UnixNano()-sealNS) / 1e9
			if lag < 0 {
				lag = 0
			}
			return lag
		}, lbl)
	reg.GaugeFunc("qserved_stream_window_tasks",
		"Sealed tasks currently in the sliding window.",
		func() float64 {
			sealed, _, _ := st.store.counts()
			return float64(sealed)
		}, lbl)
	reg.GaugeFunc("qserved_stream_open_tasks",
		"Tasks still receiving events.",
		func() float64 {
			_, open, _ := st.store.counts()
			return float64(open)
		}, lbl)
	reg.GaugeFunc("qserved_stream_window_lag_tasks",
		"Tasks sealed since the last published estimate (estimation backlog).",
		func() float64 {
			_, _, epoch := st.store.counts()
			if est := st.estimate.Load(); est != nil {
				return float64(epoch - est.Epoch)
			}
			return float64(epoch)
		}, lbl)
	reg.GaugeFunc("qserved_stream_estimate_staleness_seconds",
		"Age of the published estimate (NaN until the first one).",
		func() float64 {
			if est := st.estimate.Load(); est != nil {
				return time.Since(est.ComputedAt).Seconds()
			}
			return math.NaN()
		}, lbl)

	nq := st.cfg.NumQueues
	m.meanService = make([]*obs.FloatGauge, nq-1)
	m.meanWait = make([]*obs.FloatGauge, nq-1)
	m.ess = make([]*obs.FloatGauge, nq-1)
	m.rhat = make([]*obs.FloatGauge, nq-1)
	m.divergence = make([]*obs.FloatGauge, nq-1)
	for q := 1; q < nq; q++ {
		qlbl := obs.L("queue", strconv.Itoa(q))
		m.meanService[q-1] = reg.FloatGauge("qserved_queue_mean_service_seconds",
			"Posterior mean service time at the queue (latest estimate).", lbl, qlbl)
		m.meanWait[q-1] = reg.FloatGauge("qserved_queue_mean_wait_seconds",
			"Posterior mean waiting time at the queue (latest estimate).", lbl, qlbl)
		m.ess[q-1] = reg.FloatGauge("qserved_queue_ess",
			"Effective sample size of the queue's mean-wait chain.", lbl, qlbl)
		m.rhat[q-1] = reg.FloatGauge("qserved_queue_rhat",
			"Split Gelman-Rubin R-hat of the queue's mean-wait chain.", lbl, qlbl)
		m.divergence[q-1] = reg.FloatGauge("qserved_backend_divergence",
			"Absolute difference between the mean-field and Gibbs mean-wait estimates at the queue (NaN until both backends have published).", lbl, qlbl)
		m.meanService[q-1].Set(math.NaN())
		m.meanWait[q-1].Set(math.NaN())
		m.ess[q-1].Set(math.NaN())
		m.rhat[q-1].Set(math.NaN())
		m.divergence[q-1].Set(math.NaN())
	}
	return m
}

// updateQueueGauges publishes the per-queue posterior chain diagnostics
// after a successful estimation pass.
func (m *streamMetrics) updateQueueGauges(meanService, meanWait []float64, waitChain [][]float64) {
	for q := 1; q < len(meanService) && q-1 < len(m.meanWait); q++ {
		m.meanService[q-1].Set(meanService[q])
		m.meanWait[q-1].Set(meanWait[q])
		chain := waitChain[q]
		if len(chain) == 0 {
			m.ess[q-1].Set(math.NaN())
			m.rhat[q-1].Set(math.NaN())
			continue
		}
		m.ess[q-1].Set(stats.ESS(chain))
		m.rhat[q-1].Set(stats.SplitRHat(chain))
	}
}

// updateDivergence publishes |mean-field − Gibbs| per queue after a Gibbs
// publish on a stream that also has a retained mean-field estimate. NaN
// components (empty queues) propagate to the gauge.
func (m *streamMetrics) updateDivergence(mfWait, gibbsWait []float64) {
	for q := 1; q < len(gibbsWait) && q-1 < len(m.divergence); q++ {
		if q < len(mfWait) {
			m.divergence[q-1].Set(math.Abs(mfWait[q] - gibbsWait[q]))
		}
	}
}

// snapshotInto refreshes the reused /varz counter block in place — the
// per-scrape map allocation this replaces showed up in scrape profiles.
func (m *streamMetrics) snapshotInto(out map[string]any) {
	out["events_ingested"] = m.EventsIngested.Value()
	out["events_rejected"] = m.EventsRejected.Value()
	out["tasks_sealed"] = m.TasksSealed.Value()
	out["estimates"] = m.Estimates.Value()
	out["estimate_errors"] = m.EstimateErrors.Value()
	out["skipped_runs"] = m.SkippedRuns.Value()
	out["sweeps_run"] = m.SweepsRun.Value()
}

// Totals is the daemon-wide counter snapshot: the shutdown summary qserved
// logs after draining.
type Totals struct {
	EventsIngested uint64
	EventsRejected uint64
	TasksSealed    uint64
	Estimates      uint64
	EstimateErrors uint64
	Sweeps         uint64
	Streams        int
	Uptime         time.Duration
}

// Totals aggregates every stream's counters plus the daemon totals.
func (s *Server) Totals() Totals {
	t := Totals{
		Estimates:      s.metrics.estimates.Value(),
		EstimateErrors: s.metrics.estimateErrors.Value(),
		Sweeps:         s.metrics.sweeps.Value(),
		Uptime:         time.Since(s.start),
	}
	t.Streams = s.registry.len()
	s.registry.forEach(func(st *stream) {
		t.EventsIngested += st.m.EventsIngested.Value()
		t.EventsRejected += st.m.EventsRejected.Value()
		t.TasksSealed += st.m.TasksSealed.Value()
	})
	return t
}
