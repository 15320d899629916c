package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/xrand"
)

const (
	// pollEvery is the poller's granularity: a stream's estimate is fetched
	// at most once per interval. It bounds how precisely freshness is seen
	// and must stay the same on both sides of any comparison.
	pollEvery = 5 * time.Millisecond
	// scrapeEvery is the /metrics.json and /debug/sched scrape period.
	scrapeEvery = time.Second
	// traceRing is the span ring of a traced run (-trace-ring).
	traceRing = 262144
)

// config is one benchmark run.
type config struct {
	w       *workload
	seed    uint64
	measure time.Duration // length of the measured phase
	traced  bool          // run qserved with every ingest request traced
	// setups is the least number of daemon launches; more follow while
	// their set-ups took less than setupBudget in total, up to maxSetups.
	// setup_s is their median and the measured phase runs on the last.
	setups      int
	setupBudget time.Duration
	drain       time.Duration // cap on waiting for measured seals after the phase
	bin         string        // qserved binary
	tmp         string        // parent of the WAL directories
}

// maxSetups caps the launches of a run whose set-up is quick.
const maxSetups = 25

// sealBatch is a run of consecutive seals of one stream that share a due
// time; the last of them is the stream's epoch-th sealed task.
type sealBatch struct {
	epoch    uint64
	due      time.Time
	n        int
	measured bool // sent in the measured phase (warm-up seals are not sampled)
	covered  bool // some estimate (any backend) already covers it
}

// streamState is the driver's view of one stream.
type streamState struct {
	id     string
	window int // the stream's window_tasks
	evs    []emission
	warm   int // evs[:warm] seal the first window; they form the warm-up POST

	// Sender-only state.
	next   int             // next emission to send
	origin float64         // simulated time of the last warm-up emission
	dueAt  []time.Duration // open loop: when each emission falls due in the phase
	pass   int             // closed loop: completed passes over evs
	span   float64         // closed loop: simulated time one pass is shifted by

	// Guarded by run.mu.
	epoch   uint64      // tasks sealed by the POSTs sent so far
	pending []sealBatch // seals no Gibbs-backed estimate covers yet
	posted  bool        // the first window was sent, so the stream is polled
	nextGet time.Time   // no GET before this: at most one per pollEvery
	est     *serve.Estimate
	// sealed is a ring of the last window sealed tasks: the tasks of the
	// daemon's window, with their entry times and realized waits.
	sealed []sealedTask
}

type sealedTask struct {
	entry float64
	task  *truth
}

// plan sets when each emission after the warm-up falls due in the open
// loop, as an offset from the start of the phase: the stream's k-th seal
// at seals[k], and the events between two seals spread over the interval
// in proportion to their simulated times. Emissions after the last seal
// are never due.
func (s *streamState) plan(seals []time.Duration) {
	s.dueAt = make([]time.Duration, len(s.evs))
	prevAt, prevT, k := s.origin, time.Duration(0), 0
	knot := s.nextSeal(s.warm) // emission of seal k
	for j := s.warm; j < len(s.evs); j++ {
		switch {
		case k == len(seals):
			s.dueAt[j] = math.MaxInt64
		case j == knot:
			s.dueAt[j] = seals[k]
			prevAt, prevT, k = s.evs[j].at, seals[k], k+1
			knot = s.nextSeal(j + 1)
		default:
			frac := 1.0
			if span := s.evs[knot].at - prevAt; span > 0 {
				frac = (s.evs[j].at - prevAt) / span
			}
			s.dueAt[j] = prevT + time.Duration(frac*float64(seals[k]-prevT))
		}
	}
}

// nextSeal is the index of the first sealing emission at or after j.
func (s *streamState) nextSeal(j int) int {
	for j < len(s.evs) && !s.evs[j].ev.Final {
		j++
	}
	return j
}

// noteSeal records the task a sealing emission completes.
func (s *streamState) noteSeal(e *emission) {
	t := sealedTask{e.entry, e.task}
	if len(s.sealed) < s.window {
		s.sealed = append(s.sealed, t)
		return
	}
	s.sealed[int(s.epoch)%s.window] = t
}

// realizedLambda is the arrival rate the window's tasks actually had.
func (s *streamState) realizedLambda() float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, t := range s.sealed {
		lo, hi = math.Min(lo, t.entry), math.Max(hi, t.entry)
	}
	return float64(len(s.sealed)-1) / (hi - lo)
}

// realizedWaits is the mean wait the window's tasks really had at each
// queue (NaN at queues none of them visited).
func (s *streamState) realizedWaits(numQueues int) []float64 {
	sum, n := make([]float64, numQueues), make([]float64, numQueues)
	for _, t := range s.sealed {
		for i, q := range t.task.queue {
			sum[q] += t.task.wait[i]
			n[q]++
		}
	}
	for q := range sum {
		sum[q] /= n[q]
	}
	return sum
}

// run is the state of one benchmark run against one daemon at a time.
type run struct {
	cfg     config
	streams []*streamState

	d      *daemon
	sender *client
	poller *client
	dials  *atomic.Int64

	wake   chan struct{} // new seals are pending: the poller re-plans
	dither *xrand.RNG    // offsets of first polls; guarded by mu

	// Sender-only buffers, reused across POSTs.
	batch []emission
	wires []serve.IngestEvent
	body  []byte

	walDir string // WAL directory of the running daemon ("" when in memory)

	mu          sync.Mutex
	measuring   bool
	start, end  time.Time
	senderDone  bool
	fresh       samples // ms, any backend
	freshGibbs  samples // ms, Gibbs-backed
	postLat     samples // ms from due
	postSendLat samples // ms from send
	getLat      samples // ms from send
	late        samples // ms the generator ran behind schedule
	posts, gets int
	lastPost    time.Time // when the phase's last POST returned
	events      int       // events accepted in the measured phase
	seals       int
	attempted   int
	failed      int
	failures    []string
	maxConns    int64
	maxQueuedMS float64
	first, last scrape  // the phase's first and final /metrics.json
	cpu0, cpu1  float64 // daemon CPU seconds at those two scrapes
	drv0, drv1  float64 // driver CPU seconds likewise
}

// fail records one failed operation or gate miss.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failLocked(format, args...)
}

func (r *run) failLocked(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// schedSeed seeds the open loop's seal schedule. It is the same for every
// run: -seed varies the simulated data, not the burst pattern, which over
// the 80 to 400 seals of a run would alone move freshness by ±15%.
const schedSeed = 1

// generate builds every stream's events from the seed.
func (r *run) generate() error {
	w := r.cfg.w
	rng := xrand.New(r.cfg.seed)
	n := w.streams
	if w.shape == coldStart {
		n = int(math.Ceil(w.newPerSec * r.cfg.measure.Seconds()))
	}
	tasks, windows := make([]int, n), make([]int, n)
	var sched [][]time.Duration
	if w.shape == openLoop {
		sched = r.schedule()
	}
	for i := range tasks {
		windows[i] = w.window
		switch w.shape {
		case openLoop:
			tasks[i] = w.window + len(sched[i]) + 1
		case closedLoop:
			// One pass is replayed with shifted times as often as the loop
			// needs; 16 windows keep it far longer than the window.
			tasks[i] = 16 * w.window
		case coldStart:
			windows[i] = w.coldWindow(i)
			tasks[i] = windows[i]
		}
	}
	for i := 0; i < n; i++ {
		evs, err := w.simulate(rng.Split(), tasks[i])
		if err != nil {
			return err
		}
		s := &streamState{id: fmt.Sprintf("%s-%d", w.name, i), window: windows[i], evs: evs, warm: warmEnd(evs, windows[i])}
		s.origin = evs[s.warm-1].at
		s.span = evs[len(evs)-1].at + 1
		if sched != nil {
			s.plan(sched[i])
		}
		r.streams = append(r.streams, s)
	}
	return nil
}

// schedule draws the open loop's seals: exactly rate × streams × seconds
// of them at uniform random times over the phase (a Poisson process
// conditioned on its count), each owned by a uniformly drawn stream. It
// returns each stream's seal times in order.
func (r *run) schedule() [][]time.Duration {
	w, rng := r.cfg.w, xrand.New(schedSeed)
	out := make([][]time.Duration, w.streams)
	n := int(math.Round(w.rate * float64(w.streams) * r.cfg.measure.Seconds()))
	times := make([]time.Duration, n)
	for i := range times {
		times[i] = time.Duration(rng.Float64() * float64(r.cfg.measure))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	for _, t := range times {
		s := rng.Intn(w.streams)
		out[s] = append(out[s], t)
	}
	return out
}

// execute runs the whole benchmark: set-ups, measured phase, drain,
// correctness gate. It leaves no process running.
func execute(ctx context.Context, cfg config) (*result, error) {
	r := &run{cfg: cfg, wake: make(chan struct{}, 1), dither: xrand.New(^cfg.seed)}
	if err := r.generate(); err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	var setups []float64
	total := 0.0
	for i := 0; ; i++ {
		sec, err := r.setup(ctx, i)
		if err != nil {
			r.teardown()
			return nil, err
		}
		setups = append(setups, sec)
		total += sec
		if len(setups) >= cfg.setups && (total >= cfg.setupBudget.Seconds() || len(setups) >= maxSetups) {
			break
		}
		r.teardown()
	}
	defer r.teardown()
	if err := r.measured(ctx); err != nil {
		return nil, err
	}
	return r.finish(ctx, setups)
}

// setup launches a daemon and warms it up: every stream is created and
// sent its first window as one POST, and set-up ends once every stream
// serves a Gibbs-backed estimate covering that window. coldstart has no
// streams yet, so its set-up ends when /readyz answers.
func (r *run) setup(ctx context.Context, i int) (float64, error) {
	cfg := r.cfg
	flags := []string{}
	if cfg.w.durable {
		r.walDir = filepath.Join(cfg.tmp, fmt.Sprintf("wal-%d-%d", os.Getpid(), i))
		if err := os.RemoveAll(r.walDir); err != nil {
			return 0, err
		}
		flags = append(flags, "-wal-dir", r.walDir, "-wal-sync", "batch")
	}
	if cfg.traced {
		flags = append(flags, "-trace-sample", "1", "-trace-ring", strconv.Itoa(traceRing))
	}
	for _, s := range r.streams {
		s.next, s.pass, s.epoch, s.pending, s.posted, s.est, s.sealed, s.nextGet = 0, 0, 0, nil, false, nil, nil, time.Time{}
	}
	t0 := time.Now()
	d, err := startDaemon(cfg.bin, flags...)
	if err != nil {
		return 0, err
	}
	r.d = d
	r.dials = new(atomic.Int64)
	r.sender, r.poller = newClient(d.addr, r.dials), newClient(d.addr, r.dials)
	if err := r.waitReady(ctx); err != nil {
		return 0, err
	}
	if cfg.w.shape == coldStart {
		return time.Since(t0).Seconds(), nil
	}
	for _, s := range r.streams {
		if err := r.create(ctx, s); err != nil {
			return 0, err
		}
	}
	for _, s := range r.streams {
		if err := r.send(ctx, s, s.evs[:s.warm], time.Now(), false); err != nil {
			return 0, err
		}
		s.next = s.warm
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		next, err := r.pollDue(ctx)
		if err != nil {
			return 0, err
		}
		if next.IsZero() {
			break // every warm-up seal is covered by a Gibbs estimate
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("warm-up did not finish in 120 s")
		}
		if err := sleepUntil(ctx, next); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds(), nil
}

// waitReady polls /readyz until the daemon answers 200.
func (r *run) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		if !r.d.running() {
			return fmt.Errorf("qserved exited during start-up:\n%s", r.d.log)
		}
		status, _, err := r.poller.do(ctx, http.MethodGet, "/readyz", nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("qserved not ready after 30 s (last: %d %v):\n%s", status, err, r.d.log)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (r *run) teardown() {
	if r.d == nil {
		return
	}
	r.sender.close()
	r.poller.close()
	r.d.stop()
	if n := r.dials.Load(); n > r.maxConns {
		r.maxConns = n
	}
	r.d = nil
	if r.walDir != "" {
		if err := os.RemoveAll(r.walDir); err != nil {
			fmt.Fprintf(os.Stderr, "qbench: removing %s: %v\n", r.walDir, err)
		}
		r.walDir = ""
	}
}

// create PUTs one stream with the workload's window and default settings.
func (r *run) create(ctx context.Context, s *streamState) error {
	cfg, err := json.Marshal(serve.StreamConfig{NumQueues: r.cfg.w.numQueues(), WindowTasks: s.window})
	if err != nil {
		return err
	}
	status, body, err := r.sender.do(ctx, http.MethodPut, "/v1/streams/"+s.id, cfg)
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	if err != nil {
		return fmt.Errorf("PUT %s: %w", s.id, err)
	}
	if status != http.StatusCreated && status != http.StatusOK {
		r.fail("PUT %s: HTTP %d %s", s.id, status, body)
	}
	return nil
}

// send POSTs evs to the stream as one body whose seals are all due when
// the request is.
func (r *run) send(ctx context.Context, s *streamState, evs []emission, due time.Time, measured bool) error {
	return r.post(ctx, s, evs, due, measured, func(int) time.Time { return due })
}

// post sends evs to the stream as one NDJSON body and accounts for it.
// The seals it carries are registered as pending before the request
// leaves, so a publish that races the response is still seen. due is when
// the request was due; the seal at evs[i] is due at sealDue(i).
func (r *run) post(ctx context.Context, s *streamState, evs []emission, due time.Time, measured bool, sealDue func(i int) time.Time) error {
	r.wires = r.wires[:0]
	for i := range evs {
		r.wires = append(r.wires, evs[i].ev)
	}
	body, err := serve.AppendEvents(r.body[:0], r.wires)
	r.body = body
	if err != nil {
		return err
	}
	sealed := 0
	r.mu.Lock()
	if len(s.pending) == 0 {
		// The first GET after new seals falls at a uniform point of the
		// next poll interval: seen only at whole intervals after the POST,
		// times of a few intervals would be quantized into a median that
		// jumps by one interval from run to run.
		first := time.Now().Add(time.Duration(r.dither.Float64() * float64(pollEvery)))
		if first.After(s.nextGet) {
			s.nextGet = first
		}
	}
	for i := range evs {
		if !evs[i].ev.Final {
			continue
		}
		s.noteSeal(&evs[i])
		sealed++
		s.epoch++
		d := sealDue(i)
		if n := len(s.pending); n > 0 && s.pending[n-1].due.Equal(d) && s.pending[n-1].measured == measured {
			s.pending[n-1].epoch = s.epoch
			s.pending[n-1].n++
		} else {
			s.pending = append(s.pending, sealBatch{epoch: s.epoch, due: d, n: 1, measured: measured})
		}
	}
	s.posted = true
	r.mu.Unlock()
	r.signal()

	sent := time.Now()
	status, resp, err := r.sender.do(ctx, http.MethodPost, "/v1/streams/"+s.id+"/events", body)
	done := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		r.failLocked("POST %s: %v", s.id, err)
		return nil
	}
	if status != http.StatusOK {
		r.failLocked("POST %s: HTTP %d %s", s.id, status, resp)
		return nil
	}
	var sum serve.IngestSummary
	if err := json.Unmarshal(resp, &sum); err != nil || sum.Rejected > 0 || sum.SealedTasks != sealed {
		r.failLocked("POST %s: %d events, %d seals sent; reply %s (%v)", s.id, len(evs), sealed, resp, err)
		return nil
	}
	if measured && r.measuring {
		r.lastPost = done
		r.posts++
		r.events += sum.Accepted
		r.seals += sealed
		r.postLat.add(ms(done.Sub(due)), 1)
		r.postSendLat.add(ms(done.Sub(sent)), 1)
	}
	return nil
}

// signal wakes the poller without blocking.
func (r *run) signal() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// pollDue GETs the estimate of every stream with seals no Gibbs-backed
// estimate covers yet (or with no estimate at all) whose next GET is due.
// It returns when the next GET falls due, or the zero time when no stream
// needs polling.
func (r *run) pollDue(ctx context.Context) (time.Time, error) {
	var due []*streamState
	var next time.Time
	now := time.Now()
	r.mu.Lock()
	for _, s := range r.streams {
		if !s.posted || (len(s.pending) == 0 && s.est != nil) {
			continue
		}
		at := s.nextGet
		if !at.After(now) {
			due = append(due, s)
			at = now.Add(pollEvery)
		}
		if next.IsZero() || at.Before(next) {
			next = at
		}
	}
	r.mu.Unlock()
	for _, s := range due {
		if err := r.getEstimate(ctx, s); err != nil {
			return time.Time{}, err
		}
	}
	return next, nil
}

// getEstimate fetches one stream's estimate and folds what it covers into
// the freshness samples.
func (r *run) getEstimate(ctx context.Context, s *streamState) error {
	sent := time.Now()
	status, body, err := r.poller.do(ctx, http.MethodGet, "/v1/streams/"+s.id+"/estimate", nil)
	done := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s.nextGet = sent.Add(pollEvery)
	r.attempted++
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		r.failLocked("GET %s estimate: %v", s.id, err)
		return nil
	}
	inPhase := r.measuring && !sent.Before(r.start) && sent.Before(r.end)
	if inPhase {
		r.gets++
		r.getLat.add(ms(done.Sub(sent)), 1)
	}
	if status == http.StatusServiceUnavailable && s.est == nil {
		return nil // no estimate yet: not a failure
	}
	if status != http.StatusOK {
		r.failLocked("GET %s estimate: HTTP %d %s", s.id, status, body)
		return nil
	}
	est := new(serve.Estimate)
	if err := json.Unmarshal(body, est); err != nil {
		r.failLocked("GET %s estimate: %v", s.id, err)
		return nil
	}
	s.est = est
	k := 0
	for k < len(s.pending) && s.pending[k].epoch <= est.Epoch {
		b := &s.pending[k]
		if !b.covered {
			b.covered = true
			if b.measured {
				r.fresh.add(ms(done.Sub(b.due)), b.n)
			}
		}
		if est.Backend == serve.BackendGibbs && b.measured {
			r.freshGibbs.add(ms(done.Sub(b.due)), b.n)
		}
		k++
	}
	if est.Backend == serve.BackendGibbs {
		s.pending = s.pending[k:]
	}
	return nil
}

// measured runs the measured phase and the drain: the sender drives the
// workload on the calling goroutine while the poller tracks estimates and
// scrapes the daemon's metrics.
func (r *run) measured(ctx context.Context) error {
	pctx, stop := context.WithCancel(ctx)
	defer stop()
	r.mu.Lock()
	r.measuring = true
	r.start = time.Now()
	r.end = r.start.Add(r.cfg.measure)
	r.mu.Unlock()
	perr := make(chan error, 1)
	go func() { perr <- r.pollLoop(pctx) }()

	var err error
	switch r.cfg.w.shape {
	case openLoop:
		err = r.openLoop(ctx)
	case closedLoop:
		err = r.closedLoop(ctx)
	case coldStart:
		err = r.coldLoop(ctx)
	}
	r.mu.Lock()
	r.senderDone = true
	r.mu.Unlock()
	r.signal()
	if err != nil {
		stop()
		<-perr
		return err
	}
	return <-perr
}

// pollLoop is the poller goroutine of the measured phase: GETs as due,
// /metrics.json and /debug/sched every scrapeEvery from the start of the
// phase, one last scrape at its end, then the drain, which ends when
// every measured seal is covered by a Gibbs estimate or after cfg.drain.
func (r *run) pollLoop(ctx context.Context) error {
	nextScrape := r.start
	scrapedEnd := false
	for {
		now := time.Now()
		if !scrapedEnd && !now.Before(nextScrape) {
			final := !now.Before(r.end)
			if err := r.scrape(ctx, final); err != nil {
				return err
			}
			scrapedEnd = final
			nextScrape = nextScrape.Add(scrapeEvery)
			if nextScrape.After(r.end) {
				nextScrape = r.end
			}
		}
		next, err := r.pollDue(ctx)
		if err != nil {
			return err
		}
		r.mu.Lock()
		done := r.senderDone && scrapedEnd
		r.mu.Unlock()
		if done && (next.IsZero() || !r.measuredPending()) {
			return nil
		}
		if done && time.Now().After(r.end.Add(r.cfg.drain)) {
			return nil // the gate reports what is still uncovered
		}
		wait := nextScrape
		if scrapedEnd || (!next.IsZero() && next.Before(wait)) {
			wait = next
		}
		if wait.IsZero() {
			wait = time.Now().Add(scrapeEvery)
		}
		timer := time.NewTimer(time.Until(wait))
		select {
		case <-ctx.Done():
		case <-r.wake:
		case <-timer.C:
		}
		timer.Stop()
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
}

// measuredPending reports whether a seal sent in the measured phase still
// lacks a covering Gibbs estimate.
func (r *run) measuredPending() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.streams {
		for _, b := range s.pending {
			if b.measured {
				return true
			}
		}
	}
	return false
}

// openLoop sends, every flush interval, each stream's events that fell due
// since the previous flush (see plan).
func (r *run) openLoop(ctx context.Context) error {
	for k := time.Duration(0); ; k++ {
		at := k * r.cfg.w.flush
		tick := r.start.Add(at)
		if !tick.Before(r.end) {
			return nil
		}
		if err := sleepUntil(ctx, tick); err != nil {
			return err
		}
		first := true
		for _, s := range r.streams {
			j := s.next
			for j < len(s.evs) && s.dueAt[j] <= at {
				j++
			}
			if j == s.next {
				continue
			}
			if first {
				r.noteLate(time.Since(tick))
				first = false
			}
			base := s.next
			sealDue := func(i int) time.Time { return r.start.Add(s.dueAt[base+i]) }
			if err := r.post(ctx, s, s.evs[base:j], tick, true, sealDue); err != nil {
				return err
			}
			s.next = j
		}
	}
}

// closedLoop posts w.batch events at a time, round-robin over the
// streams, each POST leaving as soon as the previous one returned. A
// stream's events replay its simulated pass over and over, each pass
// shifted later in time and with fresh task names. The seals of a POST are
// due when it is sent.
func (r *run) closedLoop(ctx context.Context) error {
	w := r.cfg.w
	prev := time.Now()
	for i := 0; time.Now().Before(r.end); i++ {
		s := r.streams[i%len(r.streams)]
		r.batch = r.batch[:0]
		for len(r.batch) < w.batch {
			if s.next == len(s.evs) {
				s.next = 0
				s.pass++
			}
			e := s.evs[s.next]
			if s.pass > 0 {
				shift := float64(s.pass) * s.span
				e.ev.Task = "p" + strconv.Itoa(s.pass) + e.ev.Task
				e.ev.Arrival += shift
				e.ev.Depart += shift
				e.entry += shift
			}
			r.batch = append(r.batch, e)
			s.next++
		}
		sent := time.Now()
		r.noteLate(sent.Sub(prev))
		if err := r.post(ctx, s, r.batch, sent, true, func(int) time.Time { return sent }); err != nil {
			return err
		}
		prev = time.Now()
	}
	return nil
}

// coldLoop creates w.newPerSec streams per second from w.phase on; each
// gets one PUT and one POST of its whole first window, both due at the
// stream's slot.
func (r *run) coldLoop(ctx context.Context) error {
	w := r.cfg.w
	for i, s := range r.streams {
		due := r.start.Add(w.phase + time.Duration(float64(i)/w.newPerSec*float64(time.Second)))
		if !due.Before(r.end) {
			return nil
		}
		if err := sleepUntil(ctx, due); err != nil {
			return err
		}
		r.noteLate(time.Since(due))
		if err := r.create(ctx, s); err != nil {
			return err
		}
		if err := r.send(ctx, s, s.evs, due, true); err != nil {
			return err
		}
	}
	return nil
}

func (r *run) noteLate(d time.Duration) {
	r.mu.Lock()
	r.late.add(ms(d), 1)
	r.mu.Unlock()
}

// scrape reads /metrics.json and /debug/sched, plus the daemon's and the
// driver's CPU time, keeping the first and last scrape of the phase.
func (r *run) scrape(ctx context.Context, final bool) error {
	status, body, err := r.poller.do(ctx, http.MethodGet, "/metrics.json", nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("GET /metrics.json: %d %v", status, err)
	}
	sc, err := parseScrape(body)
	if err != nil {
		return err
	}
	status, body, err = r.poller.do(ctx, http.MethodGet, "/debug/sched", nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("GET /debug/sched: %d %v", status, err)
	}
	var sched serve.SchedSnapshot
	if err := json.Unmarshal(body, &sched); err != nil {
		return fmt.Errorf("decoding /debug/sched: %w", err)
	}
	cpu, err := r.d.cpuSeconds()
	if err != nil {
		return err
	}
	drv := driverCPU()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += 2
	for _, st := range sched.Streams {
		r.maxQueuedMS = math.Max(r.maxQueuedMS, st.QueuedMS)
	}
	if r.first == nil {
		r.first, r.cpu0, r.drv0 = sc, cpu, drv
	}
	if final {
		r.last, r.cpu1, r.drv1 = sc, cpu, drv
	}
	return nil
}

// spans fetches the daemon's span ring.
func (r *run) spans(ctx context.Context) ([]obs.Span, error) {
	status, body, err := r.poller.do(ctx, http.MethodGet, "/debug/trace", nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/trace: %d %v", status, err)
	}
	return parseSpans(body)
}

func driverCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
