package core

import (
	"fmt"
	"math"

	"repro/internal/trace"
	"repro/internal/xrand"
)

// WarmConfig sizes the estimation epochs of a WarmEstimator. A cold epoch
// (the first, and the first after a Reset that kept no rates) runs a StEM
// phase of EMIters sweep+M-step iterations, its parameters the average of
// the iterates after EMBurnIn. A warm epoch runs a shorter StEM phase
// sized by the fraction of the window that slid since the previous epoch,
// and carries that previous average forward; EMIters caps it. A rebased
// epoch starts from a finished StEM average without its sums, so it burns
// in only min(warmMinIters, EMBurnIn) iterations before keeping as many as
// a cold epoch (BeginEpoch). Every epoch then runs PostSweeps
// fixed-parameter posterior sweeps (means accumulated after PostBurnIn).
// Windows > 0 also accumulates, over the same kept sweeps, per-queue means
// in that many equal time buckets of the epoch's window span
// (WindowsInto). Zero values take the same defaults as
// EMOptions/PosteriorOptions; NoBurnIn disables a burn-in.
type WarmConfig struct {
	NumQueues  int
	EMIters    int
	EMBurnIn   int
	PostSweeps int
	PostBurnIn int
	Windows    int
}

func (c WarmConfig) withDefaults() WarmConfig {
	if c.EMIters <= 0 {
		c.EMIters = 200
	}
	switch {
	case c.EMBurnIn == NoBurnIn:
		c.EMBurnIn = 0
	case c.EMBurnIn == 0:
		c.EMBurnIn = c.EMIters / 2
	}
	if c.PostSweeps <= 0 {
		c.PostSweeps = 50
	}
	switch {
	case c.PostBurnIn == NoBurnIn:
		c.PostBurnIn = 0
	case c.PostBurnIn == 0:
		c.PostBurnIn = c.PostSweeps / 5
	}
	return c
}

// WarmEstimator is the anytime estimator over an incrementally sliding
// window: slides cost O(new + expired events) (SlidingWindow), and an
// epoch's sweeps can be spent in batches — each Step advances the
// EM-then-posterior schedule by at most maxSweeps, and SnapshotInto
// always yields the best estimate of the work done so far (the current
// StEM iterate mid-EM, the accumulated posterior mean once sweeps have
// been kept). That is what lets a shared executor interleave many
// streams: estimates improve monotonically within an epoch instead of
// appearing only when a full pass completes.
//
// Not safe for concurrent use; serialize per stream.
type WarmEstimator struct {
	cfg WarmConfig
	win *SlidingWindow

	rates     []float64
	haveRates bool

	// This epoch's StEM schedule, and its progress. emSum is the weighted
	// sum of the kept rate iterates and emWeight its total weight: on a
	// warm epoch both start from the previous epoch's, discounted.
	// emSvcSum and emWaitSum sum the per-queue means of the same kept
	// iterates' latent states, carried and discounted exactly like emSum
	// and weighed by emWeight (SnapshotInto).
	emIters, emBurnIn   int
	emDone              int
	emSum               []float64
	emSvcSum, emWaitSum []float64
	emWeight            float64
	// appended counts the tasks appended since the last BeginEpoch,
	// carried reports that emSum/emWeight hold a finished StEM phase's
	// average, and averaged that the rates do (they still do after
	// BeginEpoch, and after a Reset that kept them, until the next StEM
	// iteration): together they decide whether the next epoch runs warm,
	// rebased or cold.
	appended int
	carried  bool
	averaged bool

	postDone int
	svcSum   []float64
	waitSum  []float64
	postKept int
	// waitChain[q] is the post-burn-in trajectory of queue q's mean wait
	// this epoch (q0 stays empty: its wait is not meaningful in absolute
	// stream time).
	waitChain [][]float64

	scratchSvc, scratchWait []float64

	// The windowed summary: the span fixed at BeginEpoch, one pass's
	// bucket sums, and per bucket the sum of the kept sweeps' means and
	// the number of kept sweeps in which it had events.
	winLo, winHi    float64
	winPass, winSum [][]trace.WindowStats
	winCnt          [][]int
}

// NewWarmEstimator returns an estimator over an empty window.
func NewWarmEstimator(cfg WarmConfig) *WarmEstimator {
	cfg = cfg.withDefaults()
	nq := cfg.NumQueues
	if nq < 2 {
		panic("core: WarmConfig.NumQueues must be >= 2")
	}
	we := &WarmEstimator{
		cfg:         cfg,
		win:         NewSlidingWindow(nq),
		emIters:     cfg.EMIters,
		emBurnIn:    cfg.EMBurnIn,
		rates:       make([]float64, nq),
		emSum:       make([]float64, nq),
		emSvcSum:    make([]float64, nq),
		emWaitSum:   make([]float64, nq),
		svcSum:      make([]float64, nq),
		waitSum:     make([]float64, nq),
		waitChain:   make([][]float64, nq),
		scratchSvc:  make([]float64, nq),
		scratchWait: make([]float64, nq),
	}
	for q := range we.rates {
		we.rates[q] = 1
	}
	if n := cfg.Windows; n > 0 {
		we.winPass = make([][]trace.WindowStats, nq)
		we.winSum = make([][]trace.WindowStats, nq)
		we.winCnt = make([][]int, nq)
		for q := 0; q < nq; q++ {
			we.winPass[q] = make([]trace.WindowStats, n)
			we.winSum[q] = make([]trace.WindowStats, n)
			we.winCnt[q] = make([]int, n)
		}
	}
	return we
}

// Window exposes the underlying sliding window (slides, invariants,
// spans).
func (we *WarmEstimator) Window() *SlidingWindow { return we.win }

// Append slides one task in; see SlidingWindow.Append. On
// ErrInfeasibleSlide the window is unchanged and the task is not counted
// as appended.
func (we *WarmEstimator) Append(t SlideTask) error {
	if err := we.win.Append(t); err != nil {
		return err
	}
	we.appended++
	return nil
}

// EvictOldest slides the oldest task out.
func (we *WarmEstimator) EvictOldest() { we.win.EvictOldest() }

// Reset drops the window, the carried StEM sums and the posterior and
// windowed accumulators. It keeps the rates when they are a finished StEM
// average and every one is finite and positive, so the next epoch runs
// rebased from them; otherwise (a Reset mid-StEM, or after a numerical
// fault) the rates go back to 1 and the next epoch runs cold, exactly as
// on a fresh estimator. Use after a stream gap or a panic.
func (we *WarmEstimator) Reset() {
	we.win.Reset()
	keep := we.averaged
	for _, r := range we.rates {
		keep = keep && r > 0 && !math.IsInf(r, 1)
	}
	if !keep {
		we.haveRates, we.averaged = false, false
		for q := range we.rates {
			we.rates[q] = 1
		}
	}
	we.BeginEpoch()
}

// The warm-epoch schedule. A warm epoch whose window slid by a fraction f
// of its tasks discounts the carried StEM sums by max(0, 1 − f/warmMemory)
// and runs max(warmMinIters, ⌈K·f/warmMemory⌉) iterations without burn-in,
// where K = EMIters − EMBurnIn is a cold epoch's kept count. In steady
// state the rates then rest on K·max(1, warmMinIters·warmMemory/(K·f))
// iterates, never fewer than a cold epoch's. warmMemory is the span of the
// carried average as a fraction of the window, and it must be small: in
// the accuracy probe of DESIGN §16 (three tiers {1,2,4}, a 500-task
// window, 30 epochs, rates against a 3000-iteration epoch on the same
// window), forgetting over a whole window turnover (warmMemory = 1) erred
// 1.8–2.6× as much as the cold schedule at 30% observed with 10-task
// slides, because the carried iterates came from windows that had slid
// away. At 0.02 and 30, with 1-, 2- and 10-task slides, the pooled error
// was 6.09% against the cold schedule's 6.90% at 10% observed and 1.98%
// against 2.10% at 30%, at 79–195 sweeps an epoch instead of 340.
const (
	warmMemory   = 0.02
	warmMinIters = 30
)

// BeginEpoch starts a new estimation epoch over the current window
// contents: EM and posterior debts are reset, the posterior accumulators
// cleared, the windowed summary's span fixed to the window's, and the
// parameters warm-start from the previous epoch (or, on the first epoch,
// from the maximum-likelihood rates of the seeded latent state — the warm
// path's cold start needs no separate initializer because the window was
// constructed feasible).
//
// The epoch runs warm when the previous epoch finished its StEM phase and
// the warm schedule (warmMemory) is shorter than EMIters: the carried
// StEM sums are discounted and the epoch adds its iterates to them, with
// no burn-in. It runs rebased when the rates are a finished StEM average
// but the epoch cannot run warm (the slide was too large, or a Reset
// dropped the sums): from empty sums, min(warmMinIters, EMBurnIn)
// iterations of burn-in and then EMIters − EMBurnIn kept, since the start
// is already near the answer. Otherwise it runs cold: EMIters iterations,
// EMBurnIn of them burn-in, from empty sums.
func (we *WarmEstimator) BeginEpoch() {
	if !we.haveRates && we.win.LiveTasks() > 0 {
		we.win.MLERatesInto(we.rates)
		we.haveRates = true
	}
	iters, keep, warm := we.warmSchedule()
	switch {
	case warm:
		we.emIters, we.emBurnIn = iters, 0
		we.emWeight *= keep
	case we.averaged:
		burnIn := min(warmMinIters, we.cfg.EMBurnIn)
		we.emIters, we.emBurnIn = burnIn+we.cfg.EMIters-we.cfg.EMBurnIn, burnIn
		we.emWeight = 0
	default:
		we.emIters, we.emBurnIn = we.cfg.EMIters, we.cfg.EMBurnIn
		we.emWeight = 0
	}
	we.carried = false
	we.appended = 0
	we.emDone = 0
	we.postDone, we.postKept = 0, 0
	for q := range we.emSum {
		if warm {
			we.emSum[q] *= keep
			we.emSvcSum[q] *= keep
			we.emWaitSum[q] *= keep
		} else {
			we.emSum[q], we.emSvcSum[q], we.emWaitSum[q] = 0, 0, 0
		}
		we.svcSum[q] = 0
		we.waitSum[q] = 0
		we.waitChain[q] = we.waitChain[q][:0]
	}
	we.winLo, we.winHi = we.win.Span()
	we.clearWindows()
}

// warmSchedule sizes the epoch about to begin if it can run warm: its
// StEM iterations and the factor that discounts the carried sums.
func (we *WarmEstimator) warmSchedule() (iters int, keep float64, ok bool) {
	live := we.win.LiveTasks()
	if !we.carried || live == 0 {
		return 0, 0, false
	}
	f := math.Min(1, float64(we.appended)/float64(live))
	kept := we.cfg.EMIters - we.cfg.EMBurnIn
	iters = max(warmMinIters, int(math.Ceil(float64(kept)*f/warmMemory)))
	if iters >= we.cfg.EMIters {
		return 0, 0, false
	}
	return iters, math.Max(0, 1-f/warmMemory), true
}

// EMFinal reports whether this epoch's StEM phase is complete, so that
// RatesInto returns the epoch's final average rather than one iterate.
func (we *WarmEstimator) EMFinal() bool { return we.emDone >= we.emIters }

// EMIters returns this epoch's StEM iterations: EMIters on a cold epoch,
// fewer on a warm or rebased one.
func (we *WarmEstimator) EMIters() int { return we.emIters }

// EMWeight returns the effective number of StEM iterates behind the rates
// so far this epoch: the kept count on a cold or rebased epoch, and on a
// warm one the carried weight after discounting plus this epoch's
// iterates.
func (we *WarmEstimator) EMWeight() float64 { return we.emWeight }

// EpochSweeps returns the sweeps run so far this epoch.
func (we *WarmEstimator) EpochSweeps() int { return we.emDone + we.postDone }

// Remaining returns the sweeps left in the current epoch's schedule.
func (we *WarmEstimator) Remaining() int {
	return (we.emIters - we.emDone) + (we.cfg.PostSweeps - we.postDone)
}

// Done reports whether the epoch's schedule is exhausted.
func (we *WarmEstimator) Done() bool { return we.Remaining() <= 0 || we.win.LiveTasks() == 0 }

// Step advances the epoch by at most maxSweeps sweeps (maxSweeps <= 0
// runs the whole remaining schedule) and returns the sweeps actually
// run. The EM phase runs sweep + M-step per iteration and finalizes the
// parameters as the post-burn-in average; the posterior phase sweeps
// with the finalized parameters, accumulating per-queue means and the
// wait trajectory.
func (we *WarmEstimator) Step(rng *xrand.RNG, maxSweeps int) int {
	if we.win.LiveTasks() == 0 {
		return 0
	}
	if !we.haveRates {
		we.win.MLERatesInto(we.rates)
		we.haveRates = true
	}
	if maxSweeps <= 0 {
		maxSweeps = we.Remaining()
	}
	ran := 0
	for ran < maxSweeps && we.emDone < we.emIters {
		we.win.Sweep(we.rates, rng)
		we.win.MLERatesInto(we.rates)
		we.averaged = false
		we.emDone++
		ran++
		if we.emDone > we.emBurnIn {
			// The M-step left the window's per-queue sums valid, so the
			// means cost O(queues) and draw nothing.
			we.win.QueueMeansInto(we.scratchSvc, we.scratchWait)
			for q := range we.emSum {
				we.emSum[q] += we.rates[q]
				we.emSvcSum[q] += we.scratchSvc[q]
				we.emWaitSum[q] += we.scratchWait[q]
			}
			we.emWeight++
		}
		if we.emDone == we.emIters && we.emWeight > 0 {
			for q := range we.rates {
				we.rates[q] = we.emSum[q] / we.emWeight
			}
			we.carried, we.averaged = true, true
		}
	}
	for ran < maxSweeps && we.postDone < we.cfg.PostSweeps {
		we.win.Sweep(we.rates, rng)
		we.postDone++
		ran++
		if we.postDone > we.cfg.PostBurnIn {
			we.win.QueueMeansInto(we.scratchSvc, we.scratchWait)
			for q := range we.svcSum {
				we.svcSum[q] += we.scratchSvc[q]
				we.waitSum[q] += we.scratchWait[q]
				if q > 0 && we.win.qCount[q] > 0 {
					we.waitChain[q] = append(we.waitChain[q], we.scratchWait[q])
				}
			}
			we.foldWindows()
			we.postKept++
		}
	}
	return ran
}

// RatesInto writes the current parameter estimate (the finalized epoch
// average once EMFinal, the current StEM iterate before that)
// into dst, growing it as needed, and returns it.
func (we *WarmEstimator) RatesInto(dst []float64) []float64 {
	dst = resizeFloats(dst, len(we.rates))
	copy(dst, we.rates)
	return dst
}

// SnapshotInto writes the epoch's best-so-far posterior summary into sum,
// and sum.Sweeps the kept posterior sweeps behind it. The means are, in
// order of precedence:
//   - the accumulated posterior means once a posterior sweep is kept;
//   - otherwise, once emWeight > 0, the means of the kept StEM iterates'
//     latent states, on the rates' own carried schedule: at EMFinal they
//     are the average behind the finalized rates, which is the estimate a
//     publish at the finalizing sweep serves;
//   - otherwise the one-shot means of the current latent state.
//
// q0's service is the window's interarrival gap in every case, and a
// queue with no events in the window is NaN. A queue whose carried means
// are NaN (it had no events in an epoch they still carry) falls back to
// the one-shot means. The summary's slices are owned by sum and reused
// across calls.
func (we *WarmEstimator) SnapshotInto(sum *PosteriorSummary) {
	nq := we.cfg.NumQueues
	sum.MeanService = resizeFloats(sum.MeanService, nq)
	sum.MeanWait = resizeFloats(sum.MeanWait, nq)
	sum.Sweeps = we.postKept
	switch {
	case we.postKept > 0:
		k := float64(we.postKept)
		for q := 0; q < nq; q++ {
			sum.MeanService[q] = we.svcSum[q] / k
			sum.MeanWait[q] = we.waitSum[q] / k
		}
	case we.emWeight > 0:
		we.win.QueueMeansInto(sum.MeanService, sum.MeanWait)
		for q := 1; q < nq; q++ {
			if svc := we.emSvcSum[q] / we.emWeight; we.win.qCount[q] > 0 && !math.IsNaN(svc) {
				sum.MeanService[q], sum.MeanWait[q] = svc, we.emWaitSum[q]/we.emWeight
			}
		}
	default:
		we.win.QueueMeansInto(sum.MeanService, sum.MeanWait)
	}
	if cap(sum.WaitChain) < nq {
		sum.WaitChain = make([][]float64, nq)
	}
	sum.WaitChain = sum.WaitChain[:nq]
	for q := 0; q < nq; q++ {
		sum.WaitChain[q] = append(sum.WaitChain[q][:0], we.waitChain[q]...)
	}
}

// WindowsInto writes the epoch's best-so-far windowed summary into dst,
// growing it as needed, and returns it: per queue, Windows equal time
// buckets of the span fixed at BeginEpoch, each averaging the per-sweep
// means over the kept posterior sweeps in which it had events (the
// accumulation rules of core.PosteriorWindows; q0 events bucket by entry
// time since every q0 arrival is 0), or, like SnapshotInto, the one-shot
// means of the current latent state before any sweep is kept. Buckets
// without events are NaN. It reads the chain without advancing it.
func (we *WarmEstimator) WindowsInto(dst [][]trace.WindowStats) ([][]trace.WindowStats, error) {
	n := we.cfg.Windows
	if n <= 0 {
		return dst, fmt.Errorf("core: windowed stats need WarmConfig.Windows > 0")
	}
	lo, hi := we.winLo, we.winHi
	if !(lo < hi) {
		return dst, fmt.Errorf("core: degenerate window span [%v,%v)", lo, hi)
	}
	if we.postKept == 0 {
		// The accumulators are still empty: fold in the current state
		// alone, and empty them again for the first kept sweep.
		we.foldWindows()
		defer we.clearWindows()
	}
	nq := we.cfg.NumQueues
	if cap(dst) < nq {
		dst = make([][]trace.WindowStats, nq)
	}
	dst = dst[:nq]
	width := (hi - lo) / float64(n)
	for q := 0; q < nq; q++ {
		if cap(dst[q]) < n {
			dst[q] = make([]trace.WindowStats, n)
		}
		dst[q] = dst[q][:n]
		for b := 0; b < n; b++ {
			cell := trace.WindowStats{Queue: q, Lo: lo + float64(b)*width, Hi: lo + float64(b+1)*width,
				MeanService: math.NaN(), MeanWait: math.NaN()}
			if k := we.winCnt[q][b]; k > 0 {
				c := float64(k)
				sum := we.winSum[q][b]
				cell.Events = int(math.Round(float64(sum.Events) / c))
				cell.MeanService = sum.MeanService / c
				cell.MeanWait = sum.MeanWait / c
			}
			dst[q][b] = cell
		}
	}
	return dst, nil
}

// foldWindows adds one pass of the current latent state to the windowed
// accumulators: each bucket with events adds its event count and its
// per-event mean service and wait, and counts one sweep.
func (we *WarmEstimator) foldWindows() {
	if we.winSum == nil || !(we.winLo < we.winHi) {
		return
	}
	for q := range we.winPass {
		clear(we.winPass[q])
	}
	we.win.windowedStatsInto(we.winLo, we.winHi, we.cfg.Windows, we.winPass)
	for q := range we.winPass {
		for b, cell := range we.winPass[q] {
			if cell.Events == 0 {
				continue
			}
			c := float64(cell.Events)
			sum := &we.winSum[q][b]
			sum.Events += cell.Events
			sum.MeanService += cell.MeanService / c
			sum.MeanWait += cell.MeanWait / c
			we.winCnt[q][b]++
		}
	}
}

// clearWindows empties the windowed accumulators.
func (we *WarmEstimator) clearWindows() {
	for q := range we.winSum {
		clear(we.winSum[q])
		clear(we.winCnt[q])
	}
}
