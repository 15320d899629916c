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
//
// The worker also folds its outcomes into the daemon-wide totals
// (published estimates, failed passes, sweeps run, the last error) as it
// counts them per stream.
type worker struct {
	s   *Server
	st  *stream
	rng *xrand.RNG
	seq uint64
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
	needRebuild  bool // poisoned window (panic): Reset before reuse
	epochElapsed time.Duration
	sliceStart   time.Time
	sum          core.PosteriorSummary
	winStats     [][]trace.WindowStats
	rates        []float64

	// Mean-field fast path (DESIGN.md §18): the first epoch of a stream
	// with no published snapshot solves the deterministic fix point over
	// the synced window and publishes it before any sweep runs. mfWait
	// retains the mean-field per-queue waits so later Gibbs publishes can
	// report backend divergence.
	mfWait []float64

	// Tracing + freshness. sloNanos is the
	// seal→publish SLO (0 = no SLO accounting). traceRoot is the claimed
	// ingest root span whose chain this worker completes at the first
	// Gibbs publish of an epoch that began at or after traceEpoch, the
	// store epoch that ingest's apply reached; visitSpan/visitParent/
	// visitStartNS frame the visit span in flight (all zero on untraced
	// visits — the common case).
	sloNanos     int64
	traceRoot    uint64
	traceEpoch   uint64
	visitSpan    uint64
	visitParent  uint64
	visitStartNS int64
}

func newWorker(s *Server, st *stream) *worker {
	cfg := st.cfg
	w := &worker{
		s: s, st: st, rng: xrand.New(cfg.Seed),
		warm: core.NewWarmEstimator(core.WarmConfig{
			NumQueues:  cfg.NumQueues,
			EMIters:    cfg.EMIters,
			PostSweeps: cfg.PostSweeps,
			Windows:    cfg.Windows,
		}),
	}
	if s.freshnessSLO > 0 {
		w.sloNanos = s.freshnessSLO.Nanoseconds()
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
	w.s.metrics.estimateLatency.Observe(elapsed.Seconds())
	w.s.metrics.visitSweeps.Observe(float64(ran))
	if err != nil {
		w.st.m.EstimateErrors.Inc()
		w.s.metrics.estimateErrors.Inc()
		msg := fmt.Sprintf("stream %s: %v", w.st.id, err)
		now := time.Now()
		w.s.lastErr.Store(&msg)
		w.s.lastErrAt.Store(&now)
		w.s.log.Error("estimate failed", "stream", w.st.id, "err", err, "elapsed", elapsed)
	}
	if published {
		w.s.log.Info("estimate published", "stream", w.st.id, "seq", w.seq, "epoch", w.epochStart, "elapsed", elapsed)
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
// without the fast path.
func (w *worker) publishMeanField() {
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
	w.s.metrics.meanFieldSolve.Observe(elapsed.Seconds())
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
	w.s.metrics.publishedMeanField.Inc()
	w.st.m.Estimates.Inc()
	w.s.metrics.estimates.Inc()
	w.s.log.Info("estimate published", "stream", w.st.id, "seq", w.seq, "epoch", w.appliedEpoch, "elapsed", elapsed)
	w.st.m.updateQueueGauges(sum.MeanService, sum.MeanWait, sum.WaitChain)
	if w.visitSpan != 0 {
		w.s.tracer.Record(obs.Span{ID: w.s.tracer.Child(w.visitSpan), Parent: w.visitSpan,
			Kind: spanPublish, Stream: w.st.id, StartNS: start.UnixNano(), EndNS: time.Now().UnixNano()})
	}
}

// beginVisitSpan claims the stream's pending ingest root (if any) and
// opens this visit's span under it, recording the queue-wait span first.
// On untraced visits (no pending or claimed root) it leaves visitSpan 0
// and every span site in the visit path short-circuits.
func (w *worker) beginVisitSpan(enqueuedNS int64) {
	if t := w.st.traceRoot.Swap(nil); t != nil {
		// A claimed-but-unfinished older root is superseded.
		w.traceRoot, w.traceEpoch = t.root, t.epoch
	}
	if w.traceRoot == 0 {
		w.visitSpan = 0
		return
	}
	now := time.Now().UnixNano()
	if enqueuedNS > 0 && enqueuedNS <= now {
		w.s.tracer.Record(obs.Span{ID: w.s.tracer.Child(w.traceRoot), Parent: w.traceRoot,
			Kind: spanQueueWait, Stream: w.st.id, StartNS: enqueuedNS, EndNS: now})
	}
	w.visitParent = w.traceRoot
	w.visitSpan = w.s.tracer.Child(w.traceRoot)
	w.visitStartNS = now
}

// endVisitSpan closes the visit span. The claimed root survives across
// visits (an epoch spans many budgeted slices) until a publish that covers
// it completes its chain and clears it.
func (w *worker) endVisitSpan() {
	if w.visitSpan == 0 {
		return
	}
	w.s.tracer.Record(obs.Span{ID: w.visitSpan, Parent: w.visitParent,
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
// cap, and close the epoch when its schedule is exhausted. The epoch's
// first Gibbs estimate is published at the sweep that finalizes its StEM
// phase, with the rates and the means averaged over the StEM iterates;
// every visit after that republishes at its end, the means refined by
// the kept posterior sweeps. Panics from the numerical stack poison the
// window (rebuilt on the next visit) instead of killing the daemon.
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
		if w.st.estimate.Load() == nil {
			w.publishMeanField()
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
	//
	// Anytime publication: the sweep that finalizes the epoch's StEM phase
	// (EMIters iterations on a cold epoch, fewer on a warm or rebased one)
	// publishes at once, after it is counted and timed, so the first
	// estimate of an epoch does not wait for the deadline. After that,
	// every visit that ran a sweep since the last publish republishes the
	// (monotonically improving) posterior snapshot at its end. Before the
	// StEM phase finalizes, the previous epoch's estimate keeps serving —
	// rates mid-StEM are a single noisy iterate, not an estimate.
	pubRan := -1 // ran at this visit's last publish
	for !w.warm.Done() {
		final := w.warm.EMFinal()
		t0 := time.Now()
		n := w.warm.Step(w.rng, 1)
		if n == 0 {
			break
		}
		w.s.metrics.sweep.Observe(time.Since(t0).Seconds())
		if w.visitSpan != 0 {
			w.s.tracer.Record(obs.Span{ID: w.s.tracer.Child(w.visitSpan), Parent: w.visitSpan,
				Kind: spanSweep, Stream: w.st.id, StartNS: t0.UnixNano(), EndNS: time.Now().UnixNano()})
		}
		ran += n
		w.st.m.SweepsRun.Add(uint64(n))
		w.s.metrics.sweeps.Add(uint64(n))
		if !final && w.warm.EMFinal() {
			if perr := w.publishWarm(); perr != nil {
				return false, ran, perr
			}
			published, pubRan = true, ran
		}
		if cfg.SweepBatch > 0 && ran >= cfg.SweepBatch {
			break
		}
		if ctx.Err() != nil || !time.Now().Before(deadline) {
			break
		}
	}
	if w.warm.EMFinal() && ran != pubRan && w.warm.Window().LiveTasks() > 0 {
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
// further behind than one window, or a window poisoned by a panic,
// rebuilds the window from the store (counted on
// qserved_inference_rebuilds_total). A rebuild drops the carried StEM sums
// but keeps the last finished StEM average as the rates, so the next epoch
// runs rebased, with a short burn-in. A rebuild mid-StEM, or over rates
// that are not all finite and positive, drops the rates too, and the next
// epoch runs cold (WarmEstimator.Reset). A task whose observed times
// contradict FIFO is left out (applySlides); a rebuild would re-append the
// same tasks in the same order and reject it again.
func (w *worker) syncWindow() error {
	var t0 int64
	if w.visitSpan != 0 {
		t0 = time.Now().UnixNano()
	}
	win := w.warm.Window()
	tasks, epoch, window, ok := w.st.store.delta(w.appliedEpoch, w.deltaBuf)
	w.deltaBuf = tasks
	rebuild := !ok || w.needRebuild
	if rebuild {
		if win.LiveTasks() > 0 || w.needRebuild {
			w.s.metrics.rebuilds.Inc()
		}
		w.warm.Reset()
		w.needRebuild = false
		tasks, epoch, window, _ = w.st.store.delta(0, w.deltaBuf)
		w.deltaBuf = tasks
	}
	if err := w.applySlides(tasks, window); err != nil {
		w.needRebuild = true
		return err
	}
	w.appliedEpoch = epoch
	newEv := 0
	for i := range tasks {
		newEv += len(tasks[i].Events) + 1 // + the synthetic q0 entry
	}
	w.s.metrics.slideNew.Add(uint64(newEv))
	w.s.metrics.slideWindow.Add(uint64(win.LiveEvents()))
	if w.visitSpan != 0 {
		kind := spanSlide
		if rebuild {
			kind = spanRebuild
		}
		w.s.tracer.Record(obs.Span{ID: w.s.tracer.Child(w.visitSpan), Parent: w.visitSpan,
			Kind: kind, Stream: w.st.id, StartNS: t0, EndNS: time.Now().UnixNano()})
	}
	return nil
}

// applySlides appends tasks to the warm window, evicting past window
// tasks. A task whose observed times contradict FIFO under the per-queue
// order of the ingested times (core.ErrInfeasibleSlide) leaves the window
// unchanged: it is counted on qserved_slide_infeasible_total, logged with
// the stream, and left out of inference.
func (w *worker) applySlides(tasks []core.SlideTask, window int) error {
	win := w.warm.Window()
	for i := range tasks {
		if err := w.warm.Append(tasks[i]); errors.Is(err, core.ErrInfeasibleSlide) {
			w.s.metrics.slideInfeasible.Inc()
			w.s.log.Info("infeasible slide, task left out of inference", "stream", w.st.id, "err", err)
			continue
		} else if err != nil {
			return err
		}
		for win.LiveTasks() > window {
			w.warm.EvictOldest()
		}
	}
	return nil
}

// publishWarm stores the epoch's best-so-far snapshots, both read from
// the estimator without running a sweep: at the finalizing sweep the
// means carried over the StEM iterates, after it the epoch's own kept
// posterior sweeps (core.WarmEstimator.SnapshotInto). The windowed
// snapshot is stored before the estimate so a reader that observes the
// new estimate epoch is guaranteed a windowed snapshot at least as new.
func (w *worker) publishWarm() error {
	var p0 int64
	if w.visitSpan != 0 {
		p0 = time.Now().UnixNano()
	}
	win := w.warm.Window()
	lo, hi := win.Span()
	var ws *WindowsSnapshot
	if w.st.cfg.Windows > 0 {
		stats, err := w.warm.WindowsInto(w.winStats)
		if err != nil {
			return fmt.Errorf("windowed stats: %w", err)
		}
		w.winStats = stats
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
		EMIters:      w.warm.EMIters(),
		EMWeight:     w.warm.EMWeight(),
		PostSweeps:   w.sum.Sweeps,
	}
	if ws != nil {
		ws.Seq = w.seq
		w.st.windows.Store(ws)
	}
	w.st.estimate.Store(est)
	w.s.metrics.publishedGibbs.Inc()
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
	w.s.metrics.estimates.Inc()
	// Before a posterior sweep is kept there is no chain to diagnose: the
	// ESS and R̂ gauges keep the last epoch's values.
	chain := w.sum.WaitChain
	if w.sum.Sweeps == 0 {
		chain = nil
	}
	w.st.m.updateQueueGauges(w.sum.MeanService, w.sum.MeanWait, chain)
	// The first publish of an epoch that began at or after the traced
	// ingest's apply closes the chain; later republishes record no second
	// publish span under it. An epoch that began before the apply does not
	// cover it: its publishes leave the chain open, so the chain includes
	// the wait for the epoch in flight.
	if w.visitSpan != 0 && w.traceRoot != 0 && w.epochStart >= w.traceEpoch {
		w.s.tracer.Record(obs.Span{ID: w.s.tracer.Child(w.visitSpan), Parent: w.visitSpan,
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
