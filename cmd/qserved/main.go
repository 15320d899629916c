// Command qserved is the online inference daemon: it ingests observed
// arrival/departure events as NDJSON over HTTP, maintains a bounded
// sliding window of recent tasks per stream, and continuously serves
// rolling queueing estimates (λ̂, per-queue µ̂ and mean wait, windowed
// bottleneck stats) computed with warm-started stochastic EM over an
// incrementally sliding window, after an instant mean-field first answer.
//
// Usage:
//
//	qserved -addr :8645
//	qserved -addr :8645 -window 1000 -em-iters 500
//
// Then, from a client (see cmd/qload for a trace replayer):
//
//	curl -X PUT localhost:8645/v1/streams/web -d '{"num_queues":4}'
//	cat events.ndjson | curl -X POST --data-binary @- localhost:8645/v1/streams/web/events
//	curl localhost:8645/v1/streams/web/estimate
//	curl localhost:8645/metrics           # Prometheus exposition
//
// Inference runs on a shared executor: a fixed pool of -inference-workers
// goroutines drains a priority queue over streams ordered by estimate
// staleness x seal rate, spending at most -visit-budget per visit and
// publishing anytime snapshots as epochs progress (see DESIGN.md §16).
// The daemon's inference goroutine count is the pool size, independent of
// how many streams exist.
//
// With -wal-dir set the daemon is durable: every accepted event batch is
// appended to a per-shard write-ahead log before it is applied, stream
// state is snapshotted on -snapshot-interval, and a restart with the same
// directory replays the log to bit-identical windows and estimates. The
// -wal-sync policy trades fsync latency for the durability window (see
// DESIGN.md §14). GET /readyz answers 503 while recovery replays (and
// while draining), so restarts can be orchestrated without serving stale
// errors.
//
// With -trace-sample N > 0 every Nth ingest request is traced end to end
// — batch decode, WAL append/fsync, executor queue wait, window
// slide/rebuild, per-sweep, publish — into a fixed -trace-ring span
// buffer served as JSONL from GET /debug/trace; GET /debug/sched exposes
// the executor's live priority view. -freshness-slo-ms sets the
// seal→publish objective behind qserved_freshness_slo_breach_total and
// the per-stream attainment gauge (see DESIGN.md §17).
//
// Logs are structured (log/slog); -log-format selects text or json and
// -log-level the threshold. The daemon shuts down gracefully on
// SIGINT/SIGTERM, draining in-flight inference before logging a final
// counter summary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/wal"
)

func newLogger(format, level string, quiet bool) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	if quiet && lvl < slog.LevelWarn {
		lvl = slog.LevelWarn
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

func main() {
	addr := flag.String("addr", ":8645", "listen address")
	window := flag.Int("window", 500, "default sliding window size (sealed tasks per stream)")
	minTasks := flag.Int("min-tasks", 40, "default minimum sealed tasks before estimating")
	emIters := flag.Int("em-iters", 300, "default StEM iterations per window")
	postSweeps := flag.Int("post-sweeps", 40, "default posterior sweeps per window")
	windows := flag.Int("windows", 6, "default windowed-stats buckets")
	windowSweeps := flag.Int("window-sweeps", 30, "default windowed-stats sweeps")
	infWorkers := flag.Int("inference-workers", -1, "shared inference executor pool size (-1 = one per CPU)")
	queueDepth := flag.Int("queue-depth", 0, "inference queue bound; excess streams are shed and re-admitted (0 = max(64, 4x pool))")
	visitBudget := flag.Duration("visit-budget", 50*time.Millisecond, "wall-clock budget of one inference visit")
	sweepBatch := flag.Int("sweep-batch", 0, "default per-visit sweep cap per stream (0 = deadline-bounded only)")
	seed := flag.Uint64("seed", 1, "default stream RNG seed")
	maxLine := flag.Int("max-line", 1<<20, "max NDJSON line length in bytes (longer lines get HTTP 413)")
	walDir := flag.String("wal-dir", "", "write-ahead log directory for durable streams (empty = in-memory only)")
	walSync := flag.String("wal-sync", "batch", "WAL fsync policy: batch (fsync per request), off, or an interval like 50ms")
	snapInterval := flag.Duration("snapshot-interval", 30*time.Second, "how often durable stream state is snapshotted and the WAL compacted")
	quiet := flag.Bool("quiet", false, "suppress per-estimate logging (warn level and up only)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the same listener")
	blockRate := flag.Int("block-profile-rate", 0, "runtime.SetBlockProfileRate argument (0 = off; requires -pprof)")
	mutexFrac := flag.Int("mutex-profile-fraction", 0, "runtime.SetMutexProfileFraction argument (0 = off; requires -pprof)")
	traceSample := flag.Int("trace-sample", 0, "trace every Nth ingest request end to end (0 = tracing off)")
	traceRing := flag.Int("trace-ring", 4096, "span ring capacity behind GET /debug/trace (rounded up to a power of two)")
	freshSLOms := flag.Int("freshness-slo-ms", 0, "seal-to-publish freshness objective in milliseconds (0 = no SLO accounting)")
	meanField := flag.String("meanfield", serve.MeanFieldOn,
		"deterministic mean-field fast path: on (instant first estimates before Gibbs refinement) or off")
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel, *quiet)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qserved: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	// Flag validation: catch nonsense at startup with a clear message
	// instead of a confusing panic or a silently idle daemon.
	if *infWorkers == 0 || *infWorkers < -1 {
		fmt.Fprintf(os.Stderr, "qserved: -inference-workers must be positive (or -1 for one per CPU), got %d\n", *infWorkers)
		os.Exit(2)
	}
	if *snapInterval <= 0 {
		fmt.Fprintf(os.Stderr, "qserved: -snapshot-interval must be positive, got %v\n", *snapInterval)
		os.Exit(2)
	}
	if *sweepBatch < 0 {
		fmt.Fprintf(os.Stderr, "qserved: -sweep-batch must be >= 0, got %d\n", *sweepBatch)
		os.Exit(2)
	}
	if *traceSample < 0 {
		fmt.Fprintf(os.Stderr, "qserved: -trace-sample must be >= 0 (0 = off), got %d\n", *traceSample)
		os.Exit(2)
	}
	if *traceRing <= 0 {
		fmt.Fprintf(os.Stderr, "qserved: -trace-ring must be positive, got %d\n", *traceRing)
		os.Exit(2)
	}
	if *freshSLOms < 0 {
		fmt.Fprintf(os.Stderr, "qserved: -freshness-slo-ms must be >= 0 (0 = off), got %d\n", *freshSLOms)
		os.Exit(2)
	}
	if *meanField == "init-only" {
		fmt.Fprintf(os.Stderr, "qserved: -meanfield init-only was removed: it only warm-started the retired cold "+
			"inference path, and every stream now runs the warm path, where it behaved like off (want on or off)\n")
		os.Exit(2)
	}
	if !serve.ValidMeanFieldMode(*meanField) {
		fmt.Fprintf(os.Stderr, "qserved: bad -meanfield %q (want on or off)\n", *meanField)
		os.Exit(2)
	}
	if *blockRate < 0 || *mutexFrac < 0 {
		fmt.Fprintf(os.Stderr, "qserved: -block-profile-rate and -mutex-profile-fraction must be >= 0\n")
		os.Exit(2)
	}
	if (*blockRate > 0 || *mutexFrac > 0) && !*pprofOn {
		fmt.Fprintf(os.Stderr, "qserved: -block-profile-rate/-mutex-profile-fraction need -pprof (the profiles are read from /debug/pprof/)\n")
		os.Exit(2)
	}

	defaults := serve.StreamConfig{
		WindowTasks:  *window,
		MinTasks:     *minTasks,
		EMIters:      *emIters,
		PostSweeps:   *postSweeps,
		Windows:      *windows,
		WindowSweeps: *windowSweeps,
		SweepBatch:   *sweepBatch,
		Seed:         *seed,
	}
	serverOpts := []serve.Option{
		serve.WithInferenceWorkers(*infWorkers),
		serve.WithQueueDepth(*queueDepth),
		serve.WithVisitBudget(*visitBudget),
		serve.WithTraceRing(*traceRing),
		serve.WithTraceSampleEvery(*traceSample),
		serve.WithFreshnessSLO(time.Duration(*freshSLOms) * time.Millisecond),
		serve.WithMeanField(*meanField),
	}
	var srv *serve.Server
	if *walDir != "" {
		wcfg := serve.WALConfig{Dir: *walDir, SnapshotInterval: *snapInterval}
		switch *walSync {
		case "batch":
			wcfg.Sync = wal.SyncBatch
		case "off":
			wcfg.Sync = wal.SyncOff
		default:
			iv, err := time.ParseDuration(*walSync)
			if err != nil || iv <= 0 {
				fmt.Fprintf(os.Stderr, "qserved: bad -wal-sync %q (want batch, off, or a positive duration)\n", *walSync)
				os.Exit(2)
			}
			wcfg.Sync = wal.SyncInterval
			wcfg.SyncInterval = iv
		}
		start := time.Now()
		var err error
		if srv, err = serve.NewDurable(defaults, wcfg, serverOpts...); err != nil {
			logger.Error("wal recovery failed", "dir", *walDir, "err", err)
			os.Exit(1)
		}
		logger.Info("wal recovered", "dir", *walDir, "sync", *walSync,
			"elapsed", time.Since(start).Round(time.Millisecond))
	} else {
		srv = serve.New(defaults, serverOpts...)
	}
	srv.SetLogger(logger)
	srv.SetMaxLineBytes(*maxLine)

	handler := srv.Handler()
	if *pprofOn {
		// Profiling rides on the API listener: CPU/heap/mutex profiles of
		// the live daemon under real ingest load (see DESIGN.md §11 for the
		// workflow). Off by default — don't expose pprof on untrusted
		// networks.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		// Contention profiling is opt-in even under -pprof: both samplers
		// cost on every blocking event, so they are only armed when asked.
		if *blockRate > 0 {
			runtime.SetBlockProfileRate(*blockRate)
		}
		if *mutexFrac > 0 {
			runtime.SetMutexProfileFraction(*mutexFrac)
		}
		logger.Info("pprof enabled", "path", "/debug/pprof/",
			"block_rate", *blockRate, "mutex_fraction", *mutexFrac)
	}

	hs := &http.Server{Addr: *addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		logger.Info("signal received, shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			logger.Error("shutdown", "err", err)
		}
	}()

	logger.Info("listening", "addr", *addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listen", "err", err)
		os.Exit(1)
	}
	// The listener is closed; drain the shared executor (in-flight visits
	// finish their budget slice, then the pool exits) and log the final
	// counter summary.
	srv.Close()
	t := srv.Totals()
	logger.Info("drained",
		"uptime", t.Uptime.Round(time.Millisecond),
		"streams", t.Streams,
		"events_ingested", t.EventsIngested,
		"events_rejected", t.EventsRejected,
		"tasks_sealed", t.TasksSealed,
		"estimates", t.Estimates,
		"estimate_errors", t.EstimateErrors,
		"sweeps", t.Sweeps)
}
