package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// scrape is one /metrics.json document: each instrument's key (family name
// plus labels) mapped to a number or a histogram object.
type scrape map[string]json.RawMessage

func parseScrape(b []byte) (scrape, error) {
	var s scrape
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("decoding /metrics.json: %w", err)
	}
	return s, nil
}

// value is one instrument's number (0 when absent or not finite).
func (s scrape) value(key string) float64 {
	var x float64
	if json.Unmarshal(s[key], &x) != nil {
		return 0
	}
	return x
}

// family calls fn for every instrument of the family name.
func (s scrape) family(name string, fn func(json.RawMessage)) {
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			fn(v)
		}
	}
}

// counter sums a counter family over its labels.
func (s scrape) counter(name string) float64 {
	sum := 0.0
	s.family(name, func(v json.RawMessage) {
		var x float64
		if json.Unmarshal(v, &x) == nil {
			sum += x
		}
	})
	return sum
}

// hist sums a histogram family's count and sum over its labels.
func (s scrape) hist(name string) (count, sum float64) {
	s.family(name, func(v json.RawMessage) {
		var h struct{ Count, Sum float64 }
		if json.Unmarshal(v, &h) == nil {
			count += h.Count
			sum += h.Sum
		}
	})
	return count, sum
}

// phase differences two scrapes of one daemon.
type phase struct{ a, b scrape }

func (p phase) counter(name string) float64 { return p.b.counter(name) - p.a.counter(name) }
func (p phase) value(key string) float64    { return p.b.value(key) - p.a.value(key) }

// hist is the histogram's count and sum over the phase.
func (p phase) hist(name string) (count, sum float64) {
	c0, s0 := p.a.hist(name)
	c1, s1 := p.b.hist(name)
	return c1 - c0, s1 - s0
}

// histMean is the mean observation over the phase (0 without any).
func (p phase) histMean(name string) float64 {
	c, s := p.hist(name)
	return ratio(s, c)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes the per-layer metrics of a traced run. Counter and
// histogram deltas cover the measured phase; mean-field solves happen
// when a stream is first visited, mostly during warm-up, so they cover the
// daemon's whole life. liveEvents is the mean window size (events,
// including each task's q0 entry) of the streams' final estimates.
func (r *run) layerMetrics(st *spanStats, liveEvents, spansDropped float64) map[string]float64 {
	p := phase{r.first, r.last}
	secs := r.cfg.measure.Seconds()
	events := p.counter("qserved_stream_events_ingested_total")
	reqs, reqSec := p.hist("qserved_ingest_request_seconds")
	fsyncs, fsyncSec := p.hist("qserved_wal_fsync_seconds")
	visits, visitSec := p.hist("qserved_estimate_seconds")
	sweeps := p.counter("qserved_stream_sweeps_total")
	slideWin := p.counter("qserved_slide_window_events_total")
	gibbs := p.value(`qserved_backend_published_total{backend="gibbs"}`)
	meanfield := p.value(`qserved_backend_published_total{backend="meanfield"}`)
	solves, solveSec := r.last.hist("qserved_meanfield_solve_seconds")
	sweepUS := p.histMean("qserved_sweep_seconds") * 1e6
	seals := float64(r.seals)
	qw := st.durs[kindQueueWait]
	syncs := append(append(samples(nil), st.durs[kindSlide]...), st.durs[kindRebuild]...)

	return map[string]float64{
		"bench.late_ms_max":   r.late.max(),
		"bench.cpu_s":         r.drv1 - r.drv0,
		"bench.posts":         float64(r.posts),
		"bench.gets":          float64(r.gets),
		"bench.seals":         seals,
		"bench.spans_dropped": spansDropped,

		"serve.ingest.server_ms_mean":        ratio(reqSec, reqs) * 1e3,
		"serve.ingest.decode_ns_per_event":   ratio(st.selfMS(kindIngest)*1e6, events),
		"serve.ingest.batch_events_mean":     p.histMean("qserved_ingest_batch_events"),
		"serve.store.apply_ns_per_event":     ratio(st.selfMS(kindBatch)*1e6, events),
		"serve.store.lock_wait_ns_per_event": ratio(p.counter("qserved_ingest_lock_wait_nanos_total"), events),

		"wal.append_share":    ratio(st.totalMS(kindWALAppend), st.totalMS(kindIngest)),
		"wal.fsync_share":     ratio(fsyncSec, reqSec),
		"wal.fsyncs_per_post": ratio(fsyncs, reqs),
		"wal.bytes_per_event": ratio(p.counter("qserved_wal_append_bytes_total"), events),

		"serve.executor.queue_wait_ms_p50": zeroNaN(qw.quantile(0.5)),
		"serve.executor.queue_wait_ms_p90": zeroNaN(qw.quantile(0.9)),
		"serve.executor.max_queued_ms":     math.Max(r.maxQueuedMS, qw.max()),
		"serve.executor.visits":            visits,
		"serve.executor.visit_ms_mean":     ratio(visitSec, visits) * 1e3,
		"serve.executor.visit_sweeps_mean": p.histMean("qserved_inference_visit_sweeps"),
		"serve.executor.busy_share":        ratio(visitSec, r.last.value("qserved_inference_workers")*secs),
		"serve.executor.overload":          p.counter("qserved_inference_overload_total"),

		"core.slide.reuse_ratio":  ratio(slideWin-p.counter("qserved_slide_new_events_total"), slideWin),
		"core.slide.rebuilds":     p.counter("qserved_inference_rebuilds_total"),
		"core.slide.sync_us_mean": zeroNaN(syncs.mean()) * 1e3,

		"core.gibbs.sweeps":             sweeps,
		"core.gibbs.sweep_us_mean":      sweepUS,
		"core.gibbs.sweep_ns_per_event": ratio(sweepUS*1e3, liveEvents),
		"core.gibbs.sweeps_per_seal":    ratio(sweeps, seals),

		"core.meanfield.solves":        solves,
		"core.meanfield.solve_ms_mean": ratio(solveSec, solves) * 1e3,

		"serve.publish.gibbs":     gibbs,
		"serve.publish.meanfield": meanfield,
		"serve.publish.per_seal":  ratio(gibbs+meanfield, seals),
		"serve.publish.us_mean":   ratio(st.totalMS(kindPublish)*1e3, float64(st.count(kindPublish))),

		"process.cpu_util": (r.cpu1 - r.cpu0) / secs,
	}
}

func zeroNaN(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}
