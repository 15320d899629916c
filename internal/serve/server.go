// Package serve implements qserved, the online inference daemon: it
// ingests observed arrival/departure events over HTTP as NDJSON, keeps a
// bounded sliding window of recent tasks per stream, and continuously
// re-estimates each stream's arrival rate, per-queue service rates, and
// posterior waiting times on one inference path: the window slides
// incrementally under a warm StEM/Gibbs estimator (internal/core's
// WarmEstimator), and a new stream's first answer is a deterministic
// mean-field fix point over the same window. Results are published as
// immutable snapshots that are served without blocking ingest.
//
// API:
//
//	PUT  /v1/streams/{id}           create/configure a stream (StreamConfig JSON)
//	POST /v1/streams/{id}/events    ingest NDJSON IngestEvent lines
//	GET  /v1/streams/{id}/estimate  current Estimate snapshot (503 until ready)
//	GET  /v1/streams/{id}/windows   windowed bottleneck stats (503 until ready)
//	GET  /v1/streams                list streams
//	GET  /healthz                   liveness
//	GET  /metrics                   Prometheus text exposition
//	GET  /metrics.json              same registry as JSON
//	GET  /varz (also /debug/vars)   ingest/inference counters
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Span kinds of the end-to-end ingest→estimate trace chain (see
// DESIGN.md §17). A sampled ingest request roots the chain; the worker
// completes it at the next publish.
const (
	spanIngest    = "ingest"         // whole POST /events request
	spanBatch     = "ingest.batch"   // one decoded batch applied under one store lock
	spanWALAppend = "wal.append"     // one WAL record append (inside the store lock)
	spanWALFsync  = "wal.fsync"      // the request's group-commit fsync
	spanQueueWait = "queue.wait"     // notify → executor pop for the traced stream
	spanVisit     = "visit"          // one budgeted inference visit
	spanSlide     = "window.slide"   // incremental window sync
	spanRebuild   = "window.rebuild" // cold window rebuild (gap or poisoned window)
	spanSweep     = "sweep"          // one Gibbs sweep
	spanPublish   = "publish"        // snapshot build + store (incl. windowed stats)
)

// stream is one event stream: its store, its published snapshots, its
// instruments, and its scheduling block in the shared executor.
type stream struct {
	id       string
	cfg      StreamConfig
	store    *store
	estimate atomic.Pointer[Estimate]
	windows  atomic.Pointer[WindowsSnapshot]
	m        *streamMetrics
	sched    streamSched

	// traceRoot hands a sampled ingest request to the inference plane:
	// ingest stores it after sealing tasks, the next visit claims it
	// (Swap(nil)) and parents its queue-wait/visit/sweep/publish spans
	// under its root span. One pending request per stream suffices — a
	// newer sampled request simply replaces an unclaimed older one.
	traceRoot atomic.Pointer[tracedIngest]
}

// tracedIngest is a sampled ingest request as the inference plane sees
// it: its root span id, and the store epoch right after its apply. Its
// chain closes at the first Gibbs publish of an epoch that began at or
// after that epoch, the first estimate that covers the request's seals.
type tracedIngest struct {
	root  uint64
	epoch uint64
}

// Server is the qserved daemon core, independent of the HTTP listener: it
// owns the streams and the shared inference executor. Create with New,
// mount Handler on an http.Server, and Close to drain.
type Server struct {
	defaults StreamConfig

	// registry is the sharded stream table: lookups and creations touch
	// only the id's shard, so ingest on many streams never serializes on a
	// server-wide lock.
	registry *streamRegistry

	// maxLineBytes bounds one NDJSON line; longer lines get HTTP 413 with
	// the offending line number (SetMaxLineBytes to raise).
	maxLineBytes int

	metrics *serverMetrics

	// wal is the durable event store (NewDurable); nil means in-memory
	// only, and the ingest hot path pays a single nil check for it.
	wal *serveWAL

	// tracer is the sampled span recorder behind GET /debug/trace; always
	// non-nil (sampling off by default, so the hot paths pay only id==0
	// branches). freshnessSLO, when positive, is the seal→publish latency
	// past which a task counts as an SLO breach.
	tracer       *obs.Tracer
	freshnessSLO time.Duration

	// recovering is set while NewDurable replays the WAL; GET /readyz
	// answers 503 until it clears (and again while draining).
	recovering atomic.Bool

	// draining flips when Close begins; ingest answers 503 from then on.
	// ingestGate counts in-flight ingest requests (read-locked per
	// request): Close write-locks it to wait for them, so every accepted
	// event is in the store — and the WAL — before Totals is computed.
	draining   atomic.Bool
	ingestGate sync.RWMutex

	lastErr   atomic.Pointer[string]
	lastErrAt atomic.Pointer[time.Time]

	// varzMu guards the reused /varz response maps (one block per stream,
	// refreshed in place on every scrape).
	varzMu      sync.Mutex
	varzTop     map[string]any
	varzStreams map[string]any
	varzBlocks  map[string]map[string]any

	ctx       context.Context
	cancel    context.CancelFunc
	closeOnce sync.Once

	// exec is the shared inference executor: a fixed worker pool draining
	// a priority queue over all streams (see executor.go). The option
	// fields below configure it before New constructs it.
	exec            *executor
	optInfWorkers   int
	optQueueDepth   int
	optScanInterval time.Duration
	optVisitBudget  time.Duration
	optTraceRing    int
	optTraceSample  int

	start time.Time
	mux   *http.ServeMux
	log   *slog.Logger
}

// Option configures a Server at construction time.
type Option func(*Server)

// WithInferenceWorkers sets the shared executor's goroutine pool size
// (default: one per CPU). The daemon's inference goroutine count is this
// number regardless of how many streams exist.
func WithInferenceWorkers(n int) Option {
	return func(s *Server) { s.optInfWorkers = n }
}

// WithQueueDepth bounds the executor's priority queue; streams past the
// bound are shed (lowest priority first) and re-admitted by the scanner.
// Default: max(64, 4 x workers).
func WithQueueDepth(n int) Option {
	return func(s *Server) { s.optQueueDepth = n }
}

// WithScanInterval sets the executor's re-admission/rate-EWMA scan period
// (default 100ms).
func WithScanInterval(d time.Duration) Option {
	return func(s *Server) { s.optScanInterval = d }
}

// WithVisitBudget sets the wall-clock deadline of one inference visit
// (default 50ms). Smaller budgets interleave streams more finely at the
// cost of more scheduling overhead.
func WithVisitBudget(d time.Duration) Option {
	return func(s *Server) { s.optVisitBudget = d }
}

// WithTraceRing sets the capacity of the span ring behind GET
// /debug/trace (default 4096, rounded up to a power of two).
func WithTraceRing(n int) Option {
	return func(s *Server) { s.optTraceRing = n }
}

// WithTraceSampleEvery enables span tracing for every nth ingest request
// (0, the default, is off). The sampling rate can also be changed at
// runtime via Tracer().SetSampleEvery.
func WithTraceSampleEvery(n int) Option {
	return func(s *Server) { s.optTraceSample = n }
}

// WithFreshnessSLO sets the seal→publish latency objective: every sealed
// task whose first covering estimate is published later than d counts on
// qserved_freshness_slo_breach_total and degrades the stream's
// SLO-attainment gauge. d <= 0 (the default) records freshness
// histograms without SLO accounting.
func WithFreshnessSLO(d time.Duration) Option {
	return func(s *Server) { s.freshnessSLO = d }
}

// defaultTraceRing is the span ring capacity when WithTraceRing is unset.
const defaultTraceRing = 4096

// New returns a running Server (executor started, no
// streams yet). The defaults seed every stream's unset StreamConfig
// fields.
func New(defaults StreamConfig, opts ...Option) *Server {
	s := &Server{
		defaults:     defaults,
		registry:     newStreamRegistry(),
		maxLineBytes: defaultMaxLineBytes,
		start:        time.Now(),
		mux:          http.NewServeMux(),
		log:          slog.New(slog.NewTextHandler(io.Discard, nil)),
		varzTop:      make(map[string]any, 8),
		varzStreams:  make(map[string]any, 4),
		varzBlocks:   make(map[string]map[string]any, 4),
	}
	for _, opt := range opts {
		opt(s)
	}
	ring := s.optTraceRing
	if ring <= 0 {
		ring = defaultTraceRing
	}
	s.tracer = obs.NewTracer(ring)
	s.tracer.SetSampleEvery(s.optTraceSample)
	s.metrics = newServerMetrics(s)
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.exec = newExecutor(s, s.optInfWorkers, s.optQueueDepth, s.optScanInterval, s.optVisitBudget)
	s.routes()
	return s
}

// SetLogger installs a structured logger for worker errors and lifecycle
// events. The default discards everything.
func (s *Server) SetLogger(l *slog.Logger) {
	if l != nil {
		s.log = l
	}
}

// SetMaxLineBytes raises (or lowers) the per-line size limit of the NDJSON
// ingest endpoint. Lines longer than the limit are answered with HTTP 413
// naming the offending line. Call before serving traffic; n <= 0 keeps the
// current limit.
func (s *Server) SetMaxLineBytes(n int) {
	if n > 0 {
		s.maxLineBytes = n
	}
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the daemon's metrics registry (the /metrics backing
// store), for embedding callers that add their own instruments.
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

// Tracer returns the daemon's span recorder (the GET /debug/trace backing
// store), for embedding callers that adjust sampling at runtime or record
// their own spans.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Close drains the daemon: new ingest is refused (503), in-flight ingest
// requests finish (so their events are counted and durably logged), the
// shared executor stops (in-flight visits finish their budget slice), and
// — when running durably — a final snapshot is written and the logs are
// fsynced and closed. It is idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		s.ingestGate.Lock()
		s.ingestGate.Unlock() // draining keeps new ingest out from here on
		s.cancel()
		s.exec.close()
		if s.wal != nil {
			s.wal.shutdown(s)
		}
	})
}

func (s *Server) routes() {
	s.mux.HandleFunc("PUT /v1/streams/{id}", s.handleCreate)
	s.mux.HandleFunc("POST /v1/streams/{id}/events", s.handleIngest)
	s.mux.HandleFunc("GET /v1/streams/{id}/estimate", s.handleEstimate)
	s.mux.HandleFunc("GET /v1/streams/{id}/windows", s.handleWindows)
	s.mux.HandleFunc("GET /v1/streams", s.handleList)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /debug/trace", s.handleDebugTrace)
	s.mux.HandleFunc("GET /debug/sched", s.handleDebugSched)
	s.mux.Handle("GET /metrics", s.metrics.reg.Handler())
	s.mux.Handle("GET /metrics.json", s.metrics.reg.JSONHandler())
	s.mux.HandleFunc("GET /varz", s.handleVarz)
	s.mux.HandleFunc("GET /debug/vars", s.handleVarz)
}

func (s *Server) lookup(id string) *stream {
	return s.registry.get(id)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleCreate creates a stream and starts its worker. Re-creating with an
// identical config is idempotent; a different config is a conflict.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	cfg := s.defaults
	if r.ContentLength != 0 {
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&cfg); err != nil {
			writeError(w, http.StatusBadRequest, "bad stream config: %v", err)
			return
		}
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sh := s.registry.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s.draining.Load() || s.ctx.Err() != nil {
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	if st, ok := sh.m[id]; ok {
		if st.cfg == cfg {
			writeJSON(w, http.StatusOK, cfg)
			return
		}
		writeError(w, http.StatusConflict, "stream %q already exists with a different config", id)
		return
	}
	// Log the config record before constructing the stream: if the WAL
	// append fails nothing was registered, so a retried PUT is clean.
	var cfgLSN uint64
	if s.wal != nil {
		var err error
		if cfgLSN, err = s.wal.logConfig(shardIndex(id), id, cfg); err != nil {
			writeError(w, http.StatusInternalServerError, "logging stream config: %v", err)
			return
		}
	}
	st := s.buildStream(id, cfg)
	st.store.appliedLSN = cfgLSN
	sh.m[id] = st
	s.registry.count.Add(1)
	s.exec.register(st)
	s.log.Info("stream created",
		"stream", id, "queues", cfg.NumQueues, "window", cfg.WindowTasks)
	writeJSON(w, http.StatusCreated, cfg)
}

// buildStream constructs a stream and registers its instruments; the
// caller inserts it into the registry and registers it with the executor.
func (s *Server) buildStream(id string, cfg StreamConfig) *stream {
	st := &stream{
		id:    id,
		cfg:   cfg,
		store: newStore(cfg.NumQueues, cfg.WindowTasks),
	}
	st.m = newStreamMetrics(s, st)
	return st
}

// maxIngestBody bounds one ingest request (64 MiB of NDJSON).
const maxIngestBody = 64 << 20

// defaultMaxLineBytes is the default per-line limit of the ingest body
// (the old bufio.Scanner buffer cap, now configurable via SetMaxLineBytes
// and answered with a proper 413 instead of a generic scan error).
const defaultMaxLineBytes = 1 << 20

// ingestChunk is the batch granularity of store application: at most this
// many decoded events are applied per store-lock acquisition, so one huge
// body cannot starve the estimation worker's access to the store.
const ingestChunk = 4096

// ingestChunkBytes additionally flushes a batch once its input lines
// exceed this many bytes. That bounds one WAL record, which holds the
// batch's lines as received: at most these bytes plus one line, one '\n'
// per line and the record header, well below the log's 64 MiB record cap
// at the default line limit. The rule depends only on the body bytes — not
// on whether a WAL is attached — so durable and in-memory servers chunk,
// and therefore apply, identically.
const ingestChunkBytes = 8 << 20

// bodyPool recycles whole-request read buffers across ingest requests;
// buffers keep the largest capacity they have grown to.
var bodyPool sync.Pool

// batchPool recycles decoded-event batch buffers (one ingestChunk each).
var batchPool sync.Pool

// readIngestBody reads the whole request body into a pooled buffer.
// Always returns the pool token (put it back via putIngestBody); the body
// slice is only valid until then.
func readIngestBody(w http.ResponseWriter, r *http.Request) (*[]byte, []byte, error) {
	src := http.MaxBytesReader(w, r.Body, maxIngestBody)
	bp, _ := bodyPool.Get().(*[]byte)
	if bp == nil {
		b := make([]byte, 0, 64<<10)
		bp = &b
	}
	buf := (*bp)[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := src.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		*bp = buf
		if err == io.EOF {
			return bp, buf, nil
		}
		if err != nil {
			return bp, nil, err
		}
	}
}

func putIngestBody(bp *[]byte) {
	*bp = (*bp)[:0]
	bodyPool.Put(bp)
}

// handleIngest appends NDJSON events to the stream's window. Invalid lines
// are rejected individually; valid lines in the same body are kept. The
// response reports both counts (400 only when nothing was accepted; 413
// when the body or a single line exceeds its size limit).
//
// This is the batched fast path: the body is read once into a pooled
// buffer, lines are decoded with the zero-allocation NDJSON decoder
// (trace.DecodeEventLine) into a pooled batch, and each batch is applied
// to the stream store under a single lock acquisition.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.metrics.ingestLatency.Observe(time.Since(start).Seconds()) }()
	// The drain gate: Close sets draining and then write-locks ingestGate
	// to wait for requests that already hold the read lock. TryRLock
	// (instead of RLock) means a request racing the drain is refused
	// rather than blocking Close.
	if s.draining.Load() || !s.ingestGate.TryRLock() {
		writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	defer s.ingestGate.RUnlock()
	st := s.lookup(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, "unknown stream %q (PUT /v1/streams/{id} first)", r.PathValue("id"))
		return
	}
	bp, body, err := readIngestBody(w, r)
	defer putIngestBody(bp)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	// Sampled request tracing: a nonzero root id threads through the
	// batch/WAL spans below, is handed to the inference plane via
	// st.traceRoot, and zero (the common case) short-circuits every
	// downstream span call.
	root := s.tracer.StartRoot()
	if root != 0 {
		defer func() {
			s.tracer.Record(obs.Span{ID: root, Kind: spanIngest, Stream: st.id,
				StartNS: start.UnixNano(), EndNS: time.Now().UnixNano()})
		}()
	}
	sum, tooLongLine, err := s.ingestTraced(st, body, root)
	st.m.EventsIngested.Add(uint64(sum.Accepted))
	st.m.EventsRejected.Add(uint64(sum.Rejected))
	st.m.TasksSealed.Add(uint64(sum.SealedTasks))
	sum.WindowTasks, sum.OpenTasks, _ = st.store.counts()
	if err != nil {
		// WAL append or sync failed: events applied before the failure are
		// counted above, but their durability cannot be promised.
		writeError(w, http.StatusInternalServerError, "durable append failed: %v", err)
		return
	}
	if sum.SealedTasks > 0 {
		s.exec.notify(st)
	}
	if tooLongLine > 0 {
		writeError(w, http.StatusRequestEntityTooLarge,
			"line %d exceeds the %d-byte line limit (%d earlier events were applied)",
			tooLongLine, s.maxLineBytes, sum.Accepted)
		return
	}
	code := http.StatusOK
	if sum.Accepted == 0 && sum.Rejected > 0 {
		code = http.StatusBadRequest
	}
	writeJSON(w, code, sum)
}

// ingestBody decodes and applies one NDJSON body to the stream. It returns
// the ingest summary and, if a line exceeded the line limit, that line's
// number (events on earlier lines have already been applied). Factored off
// the HTTP handler so benchmarks can drive the data plane directly.
// When the server is durable (NewDurable), each flushed batch is first
// encoded as one WAL record — its accepted lines as received — and
// appended to the stream's shard log inside the store lock;
// one group-commit Sync covers the whole request before it returns. A WAL
// failure aborts the body with a non-nil error.
func (s *Server) ingestBody(st *stream, body []byte) (sum IngestSummary, tooLongLine int, err error) {
	return s.ingestTraced(st, body, 0)
}

// ingestTraced is ingestBody with an optional trace root: when root is
// nonzero (the request was sampled), each flushed batch, its WAL append,
// and the request's fsync record spans under it, and the root is handed
// to the inference plane once the body sealed tasks. root == 0 is the
// untraced hot path — every span site reduces to one branch.
func (s *Server) ingestTraced(st *stream, body []byte, root uint64) (sum IngestSummary, tooLongLine int, err error) {
	shard := shardIndex(st.id)
	bp, _ := batchPool.Get().(*[]batchEvent)
	if bp == nil {
		b := make([]batchEvent, 0, ingestChunk)
		bp = &b
	}
	batch := (*bp)[:0]
	defer func() {
		clear(batch) // drop borrowed body pointers before pooling
		*bp = batch[:0]
		batchPool.Put(bp)
	}()
	var wa *walAppend
	var walBuf *[]byte
	if s.wal != nil {
		walBuf = s.wal.getRecBuf()
		defer s.wal.putRecBuf(walBuf)
		wa = &walAppend{log: s.wal.logs[shard]}
		if root != 0 {
			wa.tr, wa.root, wa.stream = s.tracer, root, st.id
		}
	}
	chunkBytes := 0
	var applied uint64 // store epoch after the latest flushed batch
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		var bt0 int64
		if root != 0 {
			bt0 = time.Now().UnixNano()
		}
		if wa != nil {
			*walBuf = appendEventRecord((*walBuf)[:0], st.id, batch)
			wa.rec = *walBuf
		}
		s.metrics.batchEvents.Observe(float64(len(batch)))
		epoch, lockWait, aerr := st.store.appendBatch(batch, &sum, wa)
		applied = epoch
		s.metrics.lockWait[shard].Add(uint64(lockWait.Nanoseconds()))
		if aerr != nil {
			return aerr
		}
		if wa != nil {
			s.wal.m.appendRecords.Inc()
			s.wal.m.appendBytes.Add(uint64(len(wa.rec)))
		}
		if root != 0 {
			s.tracer.Record(obs.Span{ID: s.tracer.Child(root), Parent: root,
				Kind: spanBatch, Stream: st.id, StartNS: bt0, EndNS: time.Now().UnixNano()})
		}
		clear(batch) // drop borrowed body pointers before pooling
		batch = batch[:0]
		chunkBytes = 0
		return nil
	}
	line := 0
	rest := body
	for len(rest) > 0 {
		var ln []byte
		if nl := bytes.IndexByte(rest, '\n'); nl >= 0 {
			ln, rest = rest[:nl], rest[nl+1:]
		} else {
			ln, rest = rest, nil
		}
		line++
		if n := len(ln); n > 0 && ln[n-1] == '\r' {
			ln = ln[:n-1]
		}
		if len(ln) == 0 {
			continue
		}
		if len(ln) > s.maxLineBytes {
			tooLongLine = line
			break
		}
		batch = append(batch, batchEvent{raw: ln, line: line})
		be := &batch[len(batch)-1]
		err := trace.DecodeEventLine(ln, &be.ev)
		if err == nil {
			err = validateEvent(&be.ev, st.store.numQueues)
		}
		if err != nil {
			batch = batch[:len(batch)-1]
			// Flush queued events before recording the reject so errors
			// land in sum.Errors in line order, exactly as the per-event
			// path produced them.
			if ferr := flush(); ferr != nil {
				return sum, 0, ferr
			}
			sum.reject(line, err)
			continue
		}
		chunkBytes += len(ln)
		if len(batch) >= ingestChunk || chunkBytes >= ingestChunkBytes {
			if ferr := flush(); ferr != nil {
				return sum, 0, ferr
			}
		}
	}
	if ferr := flush(); ferr != nil {
		return sum, tooLongLine, ferr
	}
	// The request's durability point: one fsync covers every batch above
	// (group commit — under SyncBatch a concurrent request's Sync may
	// already have covered us, making this a no-op).
	if wa != nil {
		var ft0 int64
		if root != 0 {
			ft0 = time.Now().UnixNano()
		}
		if serr := wa.log.Sync(); serr != nil {
			return sum, tooLongLine, serr
		}
		if root != 0 {
			s.tracer.Record(obs.Span{ID: s.tracer.Child(root), Parent: root,
				Kind: spanWALFsync, Stream: st.id, StartNS: ft0, EndNS: time.Now().UnixNano()})
		}
	}
	s.metrics.ingestBytes.Add(uint64(len(body)))
	// Hand the root to the inference plane: the next visit claims it and
	// parents its queue-wait/visit/sweep/publish spans under it, closing
	// the ingest→estimate chain at the first publish that covers the
	// epoch this body's apply reached.
	if root != 0 && sum.SealedTasks > 0 {
		st.traceRoot.Store(&tracedIngest{root: root, epoch: applied})
	}
	return sum, tooLongLine, nil
}

// stalenessMS is the serving-time age of a published snapshot in
// milliseconds — the one formula every snapshot handler and the /varz
// view share.
func stalenessMS(computedAt time.Time) float64 {
	return float64(time.Since(computedAt)) / float64(time.Millisecond)
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	st := s.lookup(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, "unknown stream %q", r.PathValue("id"))
		return
	}
	est := st.estimate.Load()
	if est == nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "estimate not ready (stream needs %d sealed tasks)", st.cfg.MinTasks)
		return
	}
	out := *est
	out.StalenessMS = stalenessMS(est.ComputedAt)
	writeJSON(w, http.StatusOK, &out)
}

func (s *Server) handleWindows(w http.ResponseWriter, r *http.Request) {
	st := s.lookup(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, "unknown stream %q", r.PathValue("id"))
		return
	}
	ws := st.windows.Load()
	if ws == nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "windowed stats not ready")
		return
	}
	out := *ws
	out.StalenessMS = stalenessMS(ws.ComputedAt)
	writeJSON(w, http.StatusOK, &out)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	type streamInfo struct {
		ID          string       `json:"id"`
		Config      StreamConfig `json:"config"`
		SealedTasks int          `json:"sealed_tasks"`
		OpenTasks   int          `json:"open_tasks"`
		Epoch       uint64       `json:"epoch"`
		EstimateSeq uint64       `json:"estimate_seq"`
	}
	out := make([]streamInfo, 0, s.registry.len())
	s.registry.forEach(func(st *stream) {
		sealed, open, epoch := st.store.counts()
		info := streamInfo{ID: st.id, Config: st.cfg, SealedTasks: sealed, OpenTasks: open, Epoch: epoch}
		if est := st.estimate.Load(); est != nil {
			info.EstimateSeq = est.Seq
		}
		out = append(out, info)
	})
	writeJSON(w, http.StatusOK, map[string]any{"streams": out})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ms": float64(time.Since(s.start)) / float64(time.Millisecond),
	})
}

// handleVarz serves the debug counters: daemon totals plus one block per
// stream, including estimate staleness and window drop counts. The response
// maps are reused across scrapes (refreshed in place under varzMu) — the
// output shape matches the original expvar-style /debug/vars exactly.
func (s *Server) handleVarz(w http.ResponseWriter, _ *http.Request) {
	s.varzMu.Lock()
	defer s.varzMu.Unlock()
	out := s.varzTop
	out["uptime_ms"] = float64(time.Since(s.start)) / float64(time.Millisecond)
	out["estimates_published"] = s.metrics.estimates.Value()
	out["sweeps_run"] = s.metrics.sweeps.Value()
	out["estimate_errors"] = s.metrics.estimateErrors.Value()
	delete(out, "last_error")
	delete(out, "last_error_at")
	if msg := s.lastErr.Load(); msg != nil {
		out["last_error"] = *msg
		if at := s.lastErrAt.Load(); at != nil {
			out["last_error_at"] = at.Format(time.RFC3339Nano)
		}
	}
	s.registry.forEach(func(st *stream) {
		id := st.id
		block, ok := s.varzBlocks[id]
		if !ok {
			block = make(map[string]any, 16)
			s.varzBlocks[id] = block
		}
		st.m.snapshotInto(block)
		slid, evicted := st.store.dropStats()
		block["tasks_slid_off_window"] = slid
		block["open_tasks_evicted"] = evicted
		sealed, open, epoch := st.store.counts()
		block["window_tasks"] = sealed
		block["open_tasks"] = open
		block["epoch"] = epoch
		if est := st.estimate.Load(); est != nil {
			block["estimate_seq"] = est.Seq
			block["estimate_staleness_ms"] = stalenessMS(est.ComputedAt)
		} else {
			delete(block, "estimate_seq")
			delete(block, "estimate_staleness_ms")
		}
		s.varzStreams[id] = block
	})
	out["streams"] = s.varzStreams
	writeJSON(w, http.StatusOK, out)
}
