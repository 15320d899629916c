package serve

// Shared inference executor: a fixed pool of goroutines drains a bounded
// priority queue over streams, replacing the old one-goroutine-per-stream
// (plus one builder goroutine per stream) design. The daemon's goroutine
// count is now workers + 1 (the scanner) regardless of how many streams
// exist, and compute is spent where it matters: the queue orders streams
// by estimate staleness × recent seal rate, each visit is budgeted
// (deadline plus an optional per-stream sweep batch), and estimates are
// published anytime — a partially estimated epoch already serves its
// best-so-far snapshot. See DESIGN.md §16.
//
// Admission control: the queue is bounded. When a notify would push it
// past its depth, the lowest-priority queued stream is shed back to idle
// and counted on qserved_inference_overload_total; the periodic scanner
// re-admits shed streams as capacity frees up, so overload degrades
// estimate freshness instead of growing an unbounded backlog.

import (
	"container/heap"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Per-stream scheduling states. Transitions happen under executor.mu:
//
//	idle --notify--> queued --pop--> running --visit done--> idle
//	running --notify--> runningDirty --visit done--> queued
//
// runningDirty means new work arrived while a visit was in flight; the
// stream re-enters the queue instead of racing a second visit, so each
// stream's inference state is only ever touched by one goroutine at a
// time (stores and estimators need no extra locking for it).
const (
	schedIdle = iota
	schedQueued
	schedRunning
	schedRunningDirty
)

// streamSched is a stream's scheduling block, embedded in stream. All
// fields are guarded by the executor's mutex except wk, which is written
// once at registration and thereafter only touched by the goroutine that
// holds the stream in the running state.
type streamSched struct {
	wk            *worker
	state         int32
	heapIdx       int
	priority      float64
	rateEWMA      float64 // sealed tasks per second, exponentially smoothed
	caughtEpoch   uint64  // latest store epoch fully estimated
	lastScanAt    time.Time
	lastScanEpoch uint64
	registeredAt  time.Time
	enqueuedNS    int64  // wall clock of the last enqueue (queue-wait spans, /debug/sched)
	shed          uint64 // times this stream was shed from the bounded queue
}

type executor struct {
	s            *Server
	workers      int
	queueDepth   int
	scanInterval time.Duration
	visitBudget  time.Duration

	mu     sync.Mutex
	cond   *sync.Cond
	q      execHeap
	closed bool

	wg sync.WaitGroup
}

func newExecutor(s *Server, workers, depth int, scan, budget time.Duration) *executor {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if depth <= 0 {
		depth = 4 * workers
		if depth < 64 {
			depth = 64
		}
	}
	if scan <= 0 {
		scan = 100 * time.Millisecond
	}
	if budget <= 0 {
		budget = 50 * time.Millisecond
	}
	e := &executor{
		s:            s,
		workers:      workers,
		queueDepth:   depth,
		scanInterval: scan,
		visitBudget:  budget,
	}
	e.cond = sync.NewCond(&e.mu)
	s.metrics.reg.GaugeFunc("qserved_inference_queue_depth",
		"Streams currently queued for an inference visit.",
		func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return float64(len(e.q))
		})
	s.metrics.reg.GaugeFunc("qserved_inference_workers",
		"Size of the shared inference worker pool.",
		func() float64 { return float64(e.workers) })
	e.wg.Add(workers + 1)
	for i := 0; i < workers; i++ {
		go e.runWorker()
	}
	go e.scanLoop()
	return e
}

// register wires a stream into the executor: its per-stream inference
// state is created (seeded from a WAL-restored estimate when present) and
// the stream is queued for a first visit.
func (e *executor) register(st *stream) {
	wk := newWorker(e.s, st)
	if est := st.estimate.Load(); est != nil {
		wk.seq = est.Seq
		wk.lastEpoch = est.Epoch
		wk.caughtEpoch = est.Epoch
	}
	e.mu.Lock()
	st.sched.wk = wk
	st.sched.state = schedIdle
	st.sched.heapIdx = -1
	st.sched.caughtEpoch = wk.caughtEpoch
	st.sched.registeredAt = time.Now()
	e.mu.Unlock()
	e.notify(st)
}

// notify marks the stream as having new work (an ingest batch sealed
// tasks, or registration). Idle streams enter the queue; a stream already
// being visited is flagged dirty so it re-enters the queue afterwards.
func (e *executor) notify(st *stream) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if st.sched.wk == nil || e.closed {
		return
	}
	switch st.sched.state {
	case schedIdle:
		e.enqueueLocked(st)
	case schedRunning:
		st.sched.state = schedRunningDirty
	}
}

func (e *executor) enqueueLocked(st *stream) {
	st.sched.state = schedQueued
	st.sched.priority = e.priorityLocked(st)
	st.sched.enqueuedNS = time.Now().UnixNano()
	heap.Push(&e.q, st)
	e.shedLocked()
	e.cond.Signal()
}

// stalenessMSLocked is the age of the stream's published estimate in
// milliseconds (since registration before the first publish), the raw
// input of the priority function and the /debug/sched view.
func (e *executor) stalenessMSLocked(st *stream) float64 {
	since := st.sched.registeredAt
	if est := st.estimate.Load(); est != nil {
		since = est.ComputedAt
	}
	staleness := float64(time.Since(since)) / float64(time.Millisecond)
	if staleness < 0 {
		staleness = 0
	}
	return staleness
}

// priorityLocked is the queue order: estimate staleness scaled up by the
// stream's recent seal rate — a stale, busy stream preempts a stale,
// quiet one, and fresh streams sink to the back regardless of rate.
func (e *executor) priorityLocked(st *stream) float64 {
	return e.stalenessMSLocked(st) * (1 + st.sched.rateEWMA)
}

// shedLocked enforces the queue bound: while over depth, the
// lowest-priority queued stream is dropped back to idle and counted. The
// scanner re-admits it once there is room again.
func (e *executor) shedLocked() {
	for len(e.q) > e.queueDepth {
		min := 0
		for i := 1; i < len(e.q); i++ {
			if e.q[i].sched.priority < e.q[min].sched.priority {
				min = i
			}
		}
		st := e.q[min]
		heap.Remove(&e.q, min)
		st.sched.state = schedIdle
		st.sched.shed++
		e.s.metrics.overload.Inc()
	}
}

func (e *executor) runWorker() {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		for len(e.q) == 0 && !e.closed {
			e.cond.Wait()
		}
		if e.closed {
			e.mu.Unlock()
			return
		}
		st := heap.Pop(&e.q).(*stream)
		st.sched.state = schedRunning
		enqueuedNS := st.sched.enqueuedNS
		e.mu.Unlock()

		deadline := time.Now().Add(e.visitBudget)
		requeue, caught := st.sched.wk.visit(e.s.ctx, deadline, enqueuedNS)

		e.mu.Lock()
		st.sched.caughtEpoch = caught
		dirty := st.sched.state == schedRunningDirty
		if (requeue || dirty) && !e.closed {
			e.enqueueLocked(st)
		} else {
			st.sched.state = schedIdle
		}
		e.mu.Unlock()
	}
}

// scanLoop is the executor's safety net and rate estimator: every
// scanInterval it updates each stream's seal-rate EWMA and re-admits idle
// streams whose store epoch has moved past the last estimated one —
// streams shed under overload, or whose notify raced a shutdown check.
func (e *executor) scanLoop() {
	defer e.wg.Done()
	t := time.NewTicker(e.scanInterval)
	defer t.Stop()
	for {
		select {
		case <-e.s.ctx.Done():
			return
		case <-t.C:
		}
		e.scan(time.Now())
	}
}

func (e *executor) scan(now time.Time) {
	e.s.registry.forEach(func(st *stream) {
		sealed, _, epoch := st.store.counts()
		e.mu.Lock()
		sc := &st.sched
		if sc.wk == nil || e.closed {
			e.mu.Unlock()
			return
		}
		if !sc.lastScanAt.IsZero() {
			if dt := now.Sub(sc.lastScanAt).Seconds(); dt > 0 {
				rate := float64(epoch-sc.lastScanEpoch) / dt
				sc.rateEWMA = 0.8*sc.rateEWMA + 0.2*rate
			}
		}
		sc.lastScanAt, sc.lastScanEpoch = now, epoch
		if sc.state == schedIdle && sealed >= st.cfg.MinTasks && epoch > sc.caughtEpoch {
			e.enqueueLocked(st)
		}
		e.mu.Unlock()
	})
}

// close stops the pool: queued visits are dropped (the server is
// draining), in-flight visits finish their current budget slice, and
// every goroutine joins. The server cancels its context first, so visits
// observe the cancellation between sweep chunks.
func (e *executor) close() {
	e.mu.Lock()
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
}

// SchedStream is one stream's row in the GET /debug/sched snapshot.
type SchedStream struct {
	ID          string  `json:"id"`
	State       string  `json:"state"`
	Priority    float64 `json:"priority"`
	StalenessMS float64 `json:"staleness_ms"`
	RateEWMA    float64 `json:"rate_ewma"`
	Epoch       uint64  `json:"epoch"`
	CaughtEpoch uint64  `json:"caught_epoch"`
	Shed        uint64  `json:"shed_total"`
	QueuedMS    float64 `json:"queued_ms,omitempty"` // time in queue so far (queued streams only)
}

// SchedSnapshot is the GET /debug/sched response: the executor's
// configuration, its queue occupancy, and a per-stream view of the
// priority inputs, ordered by live priority (the queue order a full
// re-admission would produce).
type SchedSnapshot struct {
	Workers        int           `json:"workers"`
	QueueDepth     int           `json:"queue_depth"`
	Queued         int           `json:"queued"`
	VisitBudgetMS  float64       `json:"visit_budget_ms"`
	ScanIntervalMS float64       `json:"scan_interval_ms"`
	OverloadTotal  uint64        `json:"overload_total"`
	Streams        []SchedStream `json:"streams"`
}

func schedStateName(state int32) string {
	switch state {
	case schedIdle:
		return "idle"
	case schedQueued:
		return "queued"
	case schedRunning:
		return "running"
	case schedRunningDirty:
		return "running-dirty"
	default:
		return "unknown"
	}
}

// snapshot assembles the /debug/sched view. Lock order matches scan():
// the registry shard's read lock around each stream, the executor mutex
// inside it, never both across streams — a scrape cannot stall the
// scheduler for more than one stream's field reads.
func (e *executor) snapshot() SchedSnapshot {
	out := SchedSnapshot{
		Workers:        e.workers,
		QueueDepth:     e.queueDepth,
		VisitBudgetMS:  float64(e.visitBudget) / float64(time.Millisecond),
		ScanIntervalMS: float64(e.scanInterval) / float64(time.Millisecond),
		OverloadTotal:  e.s.metrics.overload.Value(),
	}
	e.mu.Lock()
	out.Queued = len(e.q)
	e.mu.Unlock()
	e.s.registry.forEach(func(st *stream) {
		_, _, epoch := st.store.counts()
		e.mu.Lock()
		sc := &st.sched
		if sc.wk == nil {
			e.mu.Unlock()
			return
		}
		row := SchedStream{
			ID:          st.id,
			State:       schedStateName(sc.state),
			Priority:    e.priorityLocked(st),
			StalenessMS: e.stalenessMSLocked(st),
			RateEWMA:    sc.rateEWMA,
			Epoch:       epoch,
			CaughtEpoch: sc.caughtEpoch,
			Shed:        sc.shed,
		}
		if sc.state == schedQueued && sc.enqueuedNS > 0 {
			row.QueuedMS = float64(time.Now().UnixNano()-sc.enqueuedNS) / 1e6
		}
		e.mu.Unlock()
		out.Streams = append(out.Streams, row)
	})
	sort.Slice(out.Streams, func(i, j int) bool {
		if out.Streams[i].Priority != out.Streams[j].Priority {
			return out.Streams[i].Priority > out.Streams[j].Priority
		}
		return out.Streams[i].ID < out.Streams[j].ID
	})
	return out
}

// execHeap is a max-heap of queued streams by sched.priority.
type execHeap []*stream

func (h execHeap) Len() int           { return len(h) }
func (h execHeap) Less(i, j int) bool { return h[i].sched.priority > h[j].sched.priority }
func (h execHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].sched.heapIdx = i
	h[j].sched.heapIdx = j
}
func (h *execHeap) Push(x any) {
	st := x.(*stream)
	st.sched.heapIdx = len(*h)
	*h = append(*h, st)
}
func (h *execHeap) Pop() any {
	old := *h
	n := len(old)
	st := old[n-1]
	old[n-1] = nil
	st.sched.heapIdx = -1
	*h = old[:n-1]
	return st
}
