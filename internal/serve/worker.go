package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// workerResult is the fan-in record every published estimate (or failed
// visit) sends to the server's collector goroutine, which aggregates
// daemon-wide totals.
type workerResult struct {
	stream  string
	seq     uint64
	epoch   uint64
	sweeps  uint64
	elapsed time.Duration
	err     error
}

// worker owns one stream's inference state. It has no goroutine of its
// own: the shared executor calls visit() with a deadline, and the state
// machine in executor.go guarantees at most one visit per stream is in
// flight, so nothing here needs locking.
//
// Every stream runs the incremental warm path: a core.WarmEstimator
// carries the window's latent assignments and merged statistics across
// slides, so catching up after an ingest batch costs O(new + expired
// events) (store.delta) instead of a full window rebuild, and an
// estimation epoch's sweeps can be spent across many budgeted visits with
// anytime snapshots between them. The mean-field first answer is solved
// over a copy of the same window.
type worker struct {
	st      *stream
	results chan<- workerResult
	sm      *serverMetrics
	rng     *xrand.RNG
	seq     uint64
	// lastEpoch is the store epoch of the last published estimate;
	// caughtEpoch is the latest store epoch whose epoch finished estimating
	// (the executor's re-admission watermark).
	lastEpoch   uint64
	caughtEpoch uint64

	warm         *core.WarmEstimator
	deltaBuf     []core.SlideTask
	appliedEpoch uint64 // store epoch the warm window mirrors
	epochStart   uint64 // appliedEpoch captured at BeginEpoch
	epochOpen    bool
	needRebuild  bool // poisoned window (panic/infeasible): Reset before reuse
	epochElapsed time.Duration
	sliceStart   time.Time
	// pendingSweeps accumulates sweeps from visits that did not publish;
	// they are flushed into the next result sent to the collector.
	pendingSweeps uint64
	sum           core.PosteriorSummary
	rates         []float64

	// Mean-field fast path (DESIGN.md §18). meanField is set when the
	// server runs in MeanFieldOn: the first epoch of a stream with no
	// published snapshot solves the deterministic fix point over the synced
	// window and publishes it before any sweep runs. mfWait retains the
	// mean-field per-queue waits so later Gibbs publishes can report
	// backend divergence.
	meanField bool
	mfWait    []float64

	// Tracing + freshness. tr is the daemon's span recorder; sloNanos the
	// seal→publish SLO (0 = no SLO accounting). traceRoot is the claimed
	// ingest root span whose chain this worker completes at the next
	// publish; visitSpan/visitParent/visitStartNS frame the visit span in
	// flight (all zero on untraced visits — the common case).
	tr           *obs.Tracer
	sloNanos     int64
	traceRoot    uint64
	visitSpan    uint64
	visitParent  uint64
	visitStartNS int64
}

func newWorker(st *stream, results chan<- workerResult, sm *serverMetrics, tr *obs.Tracer, slo time.Duration, meanField string) *worker {
	cfg := st.cfg
	w := &worker{
		st: st, results: results, sm: sm, rng: xrand.New(cfg.Seed), tr: tr,
		meanField: meanField == MeanFieldOn,
		warm: core.NewWarmEstimator(core.WarmConfig{
			NumQueues:  cfg.NumQueues,
			EMIters:    cfg.EMIters,
			PostSweeps: cfg.PostSweeps,
		}),
	}
	if slo > 0 {
		w.sloNanos = slo.Nanoseconds()
	}
	return w
}

// visit runs one budgeted inference slice. It returns whether the stream
// has an open epoch left to finish (the executor re-queues it) and the
// latest store epoch fully estimated (the scanner's re-admission
// watermark).
func (w *worker) visit(ctx context.Context, deadline time.Time, enqueuedNS int64) (requeue bool, caught uint64) {
	w.beginVisitSpan(enqueuedNS)
	defer w.endVisitSpan()
	if !w.epochOpen {
		if _, _, epoch := w.st.store.counts(); epoch == w.caughtEpoch {
			w.st.m.SkippedRuns.Inc()
			return false, w.caughtEpoch
		}
	}
	w.sliceStart = time.Now()
	published, ran, err := w.warmSlice(ctx, deadline)
	elapsed := time.Since(w.sliceStart)
	w.epochElapsed += elapsed
	w.sm.estimateLatency.Observe(elapsed.Seconds())
	w.sm.visitSweeps.Observe(float64(ran))
	if err != nil {
		w.st.m.EstimateErrors.Inc()
	}
	if published || err != nil {
		res := workerResult{
			stream:  w.st.id,
			seq:     w.seq,
			epoch:   w.epochStart,
			elapsed: elapsed,
			err:     err,
		}
		res.sweeps, w.pendingSweeps = w.pendingSweeps, 0
		select {
		case w.results <- res:
		case <-ctx.Done():
		}
	}
	return w.epochOpen, w.caughtEpoch
}

// publishMeanField is the fast path's publish, run once the first epoch's
// window is synced and holds MinTasks: it copies the window, solves the
// deterministic mean-field fix point over the copy and stores the result
// immediately — zero Gibbs sweeps, O(events) — so GET /estimate stops
// 503ing as soon as the window has MinTasks. The epoch's sweeps then run
// as usual and the Gibbs-refined estimate overwrites this one
// (lastEpoch/caughtEpoch are deliberately not advanced here, and
// freshness accounting stays with the refined publish). Solve errors are
// swallowed after counting: the stream just waits for Gibbs as it would
// with the fast path off.
func (w *worker) publishMeanField(ctx context.Context) {
	es := w.warm.Window().EventSet()
	start := time.Now()
	origStart := es.TaskEntry(0)
	origEnd := es.TaskEntry(es.NumTasks - 1)
	if err := core.ShiftTowardZero(es); err != nil {
		w.st.m.EstimateErrors.Inc()
		return
	}
	var sum core.PosteriorSummary
	var params core.Params
	if _, err := core.MeanFieldInto(&sum, &params, es, core.MeanFieldOptions{}); err != nil {
		w.st.m.EstimateErrors.Inc()
		return
	}
	elapsed := time.Since(start)
	w.sm.meanFieldSolve.Observe(elapsed.Seconds())
	w.mfWait = append(w.mfWait[:0], sum.MeanWait...)
	w.seq++
	est := &Estimate{
		Stream:       w.st.id,
		Seq:          w.seq,
		Epoch:        w.appliedEpoch,
		Lambda:       params.Rates[0],
		Rates:        params.Rates,
		MeanService:  toJSONFloats(sum.MeanService),
		MeanWait:     toJSONFloats(sum.MeanWait),
		Bottleneck:   bottleneckOf(sum.MeanWait),
		WindowTasks:  es.NumTasks,
		WindowEvents: len(es.Events) - es.NumTasks, // exclude the synthetic q0 entries
		WindowStart:  origStart,
		WindowEnd:    origEnd,
		ComputedAt:   time.Now(),
		ElapsedMS:    float64(elapsed) / float64(time.Millisecond),
		Backend:      BackendMeanField,
	}
	w.st.estimate.Store(est)
	w.sm.publishedMeanField.Inc()
	w.st.m.Estimates.Inc()
	w.st.m.updateQueueGauges(sum.MeanService, sum.MeanWait, sum.WaitChain)
	if w.visitSpan != 0 {
		w.tr.Record(obs.Span{ID: w.tr.Child(w.visitSpan), Parent: w.visitSpan,
			Kind: spanPublish, Stream: w.st.id, StartNS: start.UnixNano(), EndNS: time.Now().UnixNano()})
	}
	select {
	case w.results <- workerResult{stream: w.st.id, seq: w.seq, epoch: w.appliedEpoch, elapsed: elapsed}:
	case <-ctx.Done():
	}
}

// beginVisitSpan claims the stream's pending ingest root (if any) and
// opens this visit's span under it, recording the queue-wait span first.
// On untraced visits (no pending or claimed root) it leaves visitSpan 0
// and every span site in the visit path short-circuits.
func (w *worker) beginVisitSpan(enqueuedNS int64) {
	if r := w.st.traceRoot.Swap(0); r != 0 {
		w.traceRoot = r // a claimed-but-unfinished older root is superseded
	}
	if w.traceRoot == 0 {
		w.visitSpan = 0
		return
	}
	now := time.Now().UnixNano()
	if enqueuedNS > 0 && enqueuedNS <= now {
		w.tr.Record(obs.Span{ID: w.tr.Child(w.traceRoot), Parent: w.traceRoot,
			Kind: spanQueueWait, Stream: w.st.id, StartNS: enqueuedNS, EndNS: now})
	}
	w.visitParent = w.traceRoot
	w.visitSpan = w.tr.Child(w.traceRoot)
	w.visitStartNS = now
}

// endVisitSpan closes the visit span. The claimed root survives across
// visits (an epoch spans many budgeted slices) until a publish completes
// its chain and clears it.
func (w *worker) endVisitSpan() {
	if w.visitSpan == 0 {
		return
	}
	w.tr.Record(obs.Span{ID: w.visitSpan, Parent: w.visitParent,
		Kind: spanVisit, Stream: w.st.id, StartNS: w.visitStartNS, EndNS: time.Now().UnixNano()})
	w.visitSpan = 0
}

// recordFreshness folds the seal→publish latency of every newly covered
// epoch in (from, to] into the stream's freshness instruments. Callers
// invoke it exactly once per publish that advances the covered epoch, so
// each sealed task is recorded exactly once regardless of how many
// anytime republications an epoch gets.
func (w *worker) recordFreshness(from, to uint64, publishNS int64) {
	m := w.st.m
	lost := w.st.store.drainSealTimes(from, to, func(sealNS int64) {
		lat := float64(publishNS-sealNS) / 1e9
		if lat < 0 {
			lat = 0
		}
		m.Freshness.Observe(lat)
		if w.sloNanos > 0 && publishNS-sealNS > w.sloNanos {
			m.FreshnessBreach.Inc()
		}
	})
	if lost > 0 {
		m.FreshnessLost.Add(lost)
	}
}

// warmSlice is the budgeted body of one visit: open a new epoch if none
// is in flight (sync the window incrementally, check MinTasks on the
// synced window, publish the mean-field first answer when the stream has
// none yet), spend sweeps until the deadline or the stream's SweepBatch
// cap, publish the best-so-far snapshot once the StEM phase has finalized
// its parameters, and close the epoch when its schedule is exhausted. Panics from the
// numerical stack poison the window (rebuilt on the next visit) instead
// of killing the daemon.
func (w *worker) warmSlice(ctx context.Context, deadline time.Time) (published bool, ran int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("estimation panic: %v", r)
			w.needRebuild = true
			w.epochOpen = false
		}
	}()
	cfg := w.st.cfg
	if !w.epochOpen {
		if serr := w.syncWindow(); serr != nil {
			return false, 0, serr
		}
		if w.warm.Window().LiveTasks() < cfg.MinTasks {
			w.st.m.SkippedRuns.Inc()
			return false, 0, nil
		}
		if w.meanField && w.st.estimate.Load() == nil {
			w.publishMeanField(ctx)
		}
		w.warm.BeginEpoch()
		w.epochOpen = true
		w.epochStart = w.appliedEpoch
		w.epochElapsed = 0
	}
	// The sweep slice: one sweep at a time so each is individually timed
	// for the sweep histograms and the deadline is honored between sweeps.
	// At least one sweep always runs — a visit must make progress even
	// when it arrives with its budget already spent.
	for !w.warm.Done() {
		t0 := time.Now()
		n := w.warm.Step(w.rng, 1)
		if n == 0 {
			break
		}
		w.sm.sweep.Observe(time.Since(t0).Seconds())
		if w.visitSpan != 0 {
			w.tr.Record(obs.Span{ID: w.tr.Child(w.visitSpan), Parent: w.visitSpan,
				Kind: spanSweep, Stream: w.st.id, StartNS: t0.UnixNano(), EndNS: time.Now().UnixNano()})
		}
		ran += n
		w.pendingSweeps += uint64(n)
		w.st.m.SweepsRun.Add(uint64(n))
		if cfg.SweepBatch > 0 && ran >= cfg.SweepBatch {
			break
		}
		if ctx.Err() != nil || !time.Now().Before(deadline) {
			break
		}
	}
	// Anytime publication: once EM has finalized the epoch's parameters,
	// every visit republishes the (monotonically improving) posterior
	// snapshot. Before that point the previous epoch's estimate keeps
	// serving — rates mid-StEM are a single noisy iterate, not an
	// estimate.
	if w.warm.EpochSweeps() >= cfg.EMIters && w.warm.Window().LiveTasks() > 0 {
		if perr := w.publishWarm(); perr != nil {
			return false, ran, perr
		}
		published = true
	}
	if w.warm.Done() {
		w.epochOpen = false
		w.caughtEpoch = w.epochStart
	}
	return published, ran, nil
}

// syncWindow brings the warm window up to date with the store: the
// common case appends only the tasks sealed since the last sync and
// evicts what slid off — O(new + expired events). A stream that fell
// further behind than one window, a poisoned window, or an infeasible
// slide rebuilds cold (counted on qserved_inference_rebuilds_total).
func (w *worker) syncWindow() error {
	var t0 int64
	if w.visitSpan != 0 {
		t0 = time.Now().UnixNano()
	}
	win := w.warm.Window()
	tasks, epoch, window, ok := w.st.store.delta(w.appliedEpoch, w.deltaBuf)
	w.deltaBuf = tasks
	rebuild := !ok || w.needRebuild
	for attempt := 0; ; attempt++ {
		if rebuild {
			if win.LiveTasks() > 0 || w.needRebuild {
				w.sm.rebuilds.Inc()
			}
			w.warm.Reset()
			w.needRebuild = false
			tasks, epoch, window, _ = w.st.store.delta(0, w.deltaBuf)
			w.deltaBuf = tasks
		}
		if err := w.applySlides(tasks, window); err != nil {
			if attempt == 0 && errors.Is(err, core.ErrInfeasibleSlide) {
				rebuild, w.needRebuild = true, true
				continue
			}
			w.needRebuild = true
			return err
		}
		break
	}
	w.appliedEpoch = epoch
	newEv := 0
	for i := range tasks {
		newEv += len(tasks[i].Events) + 1 // + the synthetic q0 entry
	}
	w.sm.slideNew.Add(uint64(newEv))
	w.sm.slideWindow.Add(uint64(win.LiveEvents()))
	if w.visitSpan != 0 {
		kind := spanSlide
		if rebuild {
			kind = spanRebuild
		}
		w.tr.Record(obs.Span{ID: w.tr.Child(w.visitSpan), Parent: w.visitSpan,
			Kind: kind, Stream: w.st.id, StartNS: t0, EndNS: time.Now().UnixNano()})
	}
	return nil
}

func (w *worker) applySlides(tasks []core.SlideTask, window int) error {
	win := w.warm.Window()
	for i := range tasks {
		if err := w.warm.Append(tasks[i]); err != nil {
			return err
		}
		for win.LiveTasks() > window {
			w.warm.EvictOldest()
		}
	}
	return nil
}

// publishWarm stores the epoch's best-so-far snapshots. The windowed
// snapshot is stored before the estimate so a reader that observes the
// new estimate epoch is guaranteed a windowed snapshot at least as new.
func (w *worker) publishWarm() error {
	var p0 int64
	if w.visitSpan != 0 {
		p0 = time.Now().UnixNano()
	}
	cfg := w.st.cfg
	win := w.warm.Window()
	lo, hi := win.Span()
	var ws *WindowsSnapshot
	if cfg.Windows > 0 {
		if !(lo < hi) {
			return fmt.Errorf("windowed stats: degenerate window span [%v,%v)", lo, hi)
		}
		stats, err := w.warm.PosteriorWindows(w.rng, cfg.WindowSweeps, 0, lo, hi, cfg.Windows)
		if err != nil {
			return fmt.Errorf("windowed stats: %w", err)
		}
		w.pendingSweeps += uint64(cfg.WindowSweeps)
		w.st.m.SweepsRun.Add(uint64(cfg.WindowSweeps))
		ws = w.buildWindowsSnapshot(stats)
	}
	w.rates = w.warm.RatesInto(w.rates)
	w.warm.SnapshotInto(&w.sum)
	w.seq++
	est := &Estimate{
		Stream:       w.st.id,
		Seq:          w.seq,
		Epoch:        w.epochStart,
		Lambda:       w.rates[0],
		Rates:        append([]float64(nil), w.rates...),
		MeanService:  toJSONFloats(w.sum.MeanService),
		MeanWait:     toJSONFloats(w.sum.MeanWait),
		Bottleneck:   bottleneckOf(w.sum.MeanWait),
		WindowTasks:  win.LiveTasks(),
		WindowEvents: win.LiveEvents() - win.LiveTasks(), // exclude the synthetic q0 entries
		WindowStart:  lo,
		WindowEnd:    hi,
		ComputedAt:   time.Now(),
		ElapsedMS:    float64(w.epochElapsed+time.Since(w.sliceStart)) / float64(time.Millisecond),
		Backend:      BackendGibbs,
	}
	if ws != nil {
		ws.Seq = w.seq
		w.st.windows.Store(ws)
	}
	w.st.estimate.Store(est)
	w.sm.publishedGibbs.Inc()
	if w.mfWait != nil {
		w.st.m.updateDivergence(w.mfWait, w.sum.MeanWait)
	}
	// Freshness: the first publish covering an epoch records each newly
	// covered task's seal→publish latency. Anytime republications of the
	// same epoch leave lastEpoch unchanged and record nothing, so every
	// sealed task is counted exactly once.
	if prev := w.lastEpoch; w.epochStart > prev {
		w.recordFreshness(prev, w.epochStart, est.ComputedAt.UnixNano())
	}
	w.lastEpoch = w.epochStart
	w.st.m.Estimates.Inc()
	w.st.m.updateQueueGauges(w.sum.MeanService, w.sum.MeanWait, w.sum.WaitChain)
	if w.visitSpan != 0 {
		w.tr.Record(obs.Span{ID: w.tr.Child(w.visitSpan), Parent: w.visitSpan,
			Kind: spanPublish, Stream: w.st.id, StartNS: p0, EndNS: time.Now().UnixNano()})
		w.traceRoot = 0 // the ingest→publish chain is complete
	}
	return nil
}

// buildWindowsSnapshot converts per-queue windowed stats into the wire
// snapshot of the current epoch.
func (w *worker) buildWindowsSnapshot(stats [][]trace.WindowStats) *WindowsSnapshot {
	cfg := w.st.cfg
	ws := &WindowsSnapshot{
		Stream:     w.st.id,
		Seq:        w.seq,
		Epoch:      w.epochStart,
		Queues:     make([][]WindowCell, len(stats)),
		Bottleneck: make([]int, cfg.Windows),
		ComputedAt: time.Now(),
	}
	for q := range stats {
		ws.Queues[q] = make([]WindowCell, len(stats[q]))
		for i, cell := range stats[q] {
			ws.Queues[q][i] = WindowCell{
				Queue:       cell.Queue,
				Lo:          cell.Lo,
				Hi:          cell.Hi,
				Events:      cell.Events,
				MeanService: JSONFloat(cell.MeanService),
				MeanWait:    JSONFloat(cell.MeanWait),
			}
		}
	}
	for i := 0; i < cfg.Windows; i++ {
		col := make([]float64, len(stats))
		for q := range stats {
			col[q] = stats[q][i].MeanWait
		}
		ws.Bottleneck[i] = bottleneckOf(col)
	}
	return ws
}
