package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/trace"
	"repro/internal/xrand"
)

// This file implements the incremental sliding-window state behind the
// daemon's warm inference path: a window of tasks that slides by
// O(new + expired events) instead of being rebuilt from scratch, carrying
// the previous window's latent arrival/departure assignments across every
// slide.
//
// The event storage mirrors trace.EventSet (the free resamplers of
// gibbs.go run on it unchanged), but the per-queue FIFO chains are
// maintained incrementally: events of an appended task are spliced into
// each queue's chain by a backward walk from the tail (new tasks are
// recent, so the walk is short), evicted tasks are unlinked from the head,
// and the dead prefix of the backing arrays is reclaimed by an amortized
// compaction once it outgrows the live suffix.
//
// A chain's order is declared at ingest and never changes: events sort by
// their ingested arrival (the entry time at q0), ties by FIFO upstream
// (chainGreater). Sweeps keep that order, since every latent move is
// truncated to its chain neighbours. After a splice, the repair is the
// feasibility pass the mean-field setup runs (feasPass, init.go) over the
// region the new task can reach: it moves only latent times, and it fails
// only when the observed times contradict the declared order. A failed
// append leaves the window as it was.
//
// The continuation contract: after any sequence of slides, the sampler
// state (chains, latent times, sweep parity) is exactly the
// state a cold construction over the same live tasks and latent values
// would produce, so continuing the chain is bit-identical to a fresh
// sampler seeded from a clone of this state given the same RNG — see
// TestIncrementalSlideBitIdentical and DESIGN.md §16.

// ErrInfeasibleSlide reports that an appended task's observed times
// contradict FIFO under the declared chain order, so no latent times can
// make the window feasible. The append left the window unchanged; the
// caller leaves the task out.
var ErrInfeasibleSlide = errors.New("core: incremental slide infeasible")

// SlideEvent is one observed event of a task entering the window, in task
// path order. Arr/Dep are the raw stream times; ObsArr/ObsDep mark which
// of them are observed (unobserved times seed the latent state and are
// free to move).
type SlideEvent struct {
	Queue  int
	State  int
	Arr    float64
	Dep    float64
	ObsArr bool
	ObsDep bool
}

// SlideTask is one sealed task entering the window: its arrival-queue
// entry time plus its path events (the last event is the task's final
// one). The Events slice is copied out; the caller may reuse it.
type SlideTask struct {
	Entry    float64
	EntryObs bool
	Events   []SlideEvent
}

// winTask records one task's contiguous event block.
type winTask struct {
	first int // index of the task's q0 event
	n     int // events including the q0 event
}

// SlidingWindow is the incremental window state. The zero value is not
// ready; use NewSlidingWindow.
type SlidingWindow struct {
	set trace.EventSet // Events/Arr/Dep storage; ByQueue/ByTask stay nil

	// key is each event's declared chain key, its ingested arrival (the
	// entry time at q0), and seq its insertion sequence number, the
	// deterministic tie-break for equal entry times (chainGreater): a fresh
	// window built from the same tasks in the same order reproduces
	// identical chains.
	key []float64
	seq []uint64

	tasks    []winTask
	taskHead int // first live task in tasks
	evHead   int // first live event in set.Events
	taskSeq  int // monotone task counter (Event.Task)
	nextSeq  uint64

	qHead, qTail []int // per-queue chain ends (trace.None when empty)
	qCount       []int // live events per queue

	// svc and wait are the per-queue Σservice/Σwait of the live events.
	// queueSums recomputes them in one pass when they are read after a
	// change: sweep, slide, repair or Reset clear sumsValid.
	svc, wait []float64
	sumsValid bool

	// moves lists the latent moves in chain order, the order Sweep visits
	// them. Moves never reorder a chain, so it is rebuilt only after a
	// relink (linkAfter, unlink), a compaction or Reset clears movesValid.
	moves      latentMoves
	movesValid bool

	sweeps int // sweep parity (forward/backward alternation)

	mc moveCtx // the sweep's RNG and skip counter

	// fp, region and pos are the repair's feasibility pass, the region it
	// runs over and the events' positions in it (reused).
	fp     feasPass
	region []int32
	pos    []int32

	// opWork counts chain-walk steps and repaired events of the last
	// Append/EvictOldest — the O(new + expired) work gate measures it.
	opWork int
}

// NewSlidingWindow returns an empty window over numQueues queues
// (including the arrival queue q0).
func NewSlidingWindow(numQueues int) *SlidingWindow {
	if numQueues < 2 {
		panic("core: SlidingWindow needs at least the arrival queue and one service queue")
	}
	w := &SlidingWindow{
		qHead:  make([]int, numQueues),
		qTail:  make([]int, numQueues),
		qCount: make([]int, numQueues),
	}
	w.set.NumQueues = numQueues
	for q := range w.qHead {
		w.qHead[q], w.qTail[q] = trace.None, trace.None
	}
	w.svc = make([]float64, numQueues)
	w.wait = make([]float64, numQueues)
	return w
}

// Reset drops every task and all carried state (latent times, parity),
// keeping the allocated capacity. Use after a stream gap or on a cold
// rebuild.
func (w *SlidingWindow) Reset() {
	w.set.Events = w.set.Events[:0]
	w.set.Arr = w.set.Arr[:0]
	w.set.Dep = w.set.Dep[:0]
	w.set.NumTasks = 0
	w.key = w.key[:0]
	w.seq = w.seq[:0]
	w.tasks = w.tasks[:0]
	w.taskHead, w.evHead = 0, 0
	for q := range w.qHead {
		w.qHead[q], w.qTail[q] = trace.None, trace.None
		w.qCount[q] = 0
	}
	w.sweeps = 0
	w.sumsValid, w.movesValid = false, false
}

// NumQueues returns the queue count (including q0).
func (w *SlidingWindow) NumQueues() int { return w.set.NumQueues }

// LiveTasks returns the number of tasks currently in the window.
func (w *SlidingWindow) LiveTasks() int { return len(w.tasks) - w.taskHead }

// LiveEvents returns the number of live events (including q0 events).
func (w *SlidingWindow) LiveEvents() int { return len(w.set.Events) - w.evHead }

// LastOpWork returns the chain-walk steps plus repaired events of the
// most recent Append or EvictOldest — the slide's work, which must scale
// with the delta, not the window.
func (w *SlidingWindow) LastOpWork() int { return w.opWork }

// Span returns the entry times of the oldest and newest tasks (the
// window's coverage in stream time). Zero for an empty window.
func (w *SlidingWindow) Span() (start, end float64) {
	if w.qCount[0] == 0 {
		return 0, 0
	}
	return w.set.Dep[w.qHead[0]], w.set.Dep[w.qTail[0]]
}

// svcWait returns the current service and waiting time of event i.
func (w *SlidingWindow) svcWait(i int) (svc, wait float64) {
	start := w.set.ServiceStart(i)
	return w.set.Dep[i] - start, start - w.set.Arr[i]
}

// chainGreater reports whether a sorts after b in their queue's declared
// chain order: by key, and equal keys by FIFO upstream. Two events that
// arrive together from one queue take the order in which they left it,
// which is their task predecessors' chain order there, applied
// recursively; two q0 events, which have no predecessor, take insertion
// order. Equal keys from different upstream queues order by the queue
// index, so the order stays total and transitive: a fresh window over the
// same tasks, and trace.Builder, declare the same chains whatever the
// insertion order (ties at the entry aside). Distinct continuous times
// never tie, so this only matters on coarse clocks.
func (w *SlidingWindow) chainGreater(a, b int) bool {
	ev := w.set.Events
	for w.key[a] == w.key[b] {
		pa, pb := ev[a].PrevT, ev[b].PrevT
		if pa == trace.None || pb == trace.None {
			return w.seq[a] > w.seq[b]
		}
		if qa, qb := ev[pa].Queue, ev[pb].Queue; qa != qb {
			return qa > qb
		}
		a, b = pa, pb
	}
	return w.key[a] > w.key[b]
}

// linkAfter splices event i into queue q's chain after prev (trace.None
// for the head).
func (w *SlidingWindow) linkAfter(i, prev, q int) {
	var next int
	if prev == trace.None {
		next = w.qHead[q]
	} else {
		next = w.set.Events[prev].NextQ
	}
	w.set.Events[i].PrevQ = prev
	w.set.Events[i].NextQ = next
	if prev == trace.None {
		w.qHead[q] = i
	} else {
		w.set.Events[prev].NextQ = i
	}
	if next == trace.None {
		w.qTail[q] = i
	} else {
		w.set.Events[next].PrevQ = i
	}
	w.qCount[q]++
	w.sumsValid, w.movesValid = false, false
}

// unlink removes event i from its queue chain.
func (w *SlidingWindow) unlink(i int) {
	e := &w.set.Events[i]
	q := e.Queue
	prev, next := e.PrevQ, e.NextQ
	if prev == trace.None {
		w.qHead[q] = next
	} else {
		w.set.Events[prev].NextQ = next
	}
	if next == trace.None {
		w.qTail[q] = prev
	} else {
		w.set.Events[next].PrevQ = prev
	}
	e.PrevQ, e.NextQ = trace.None, trace.None
	w.qCount[q]--
	w.sumsValid, w.movesValid = false, false
}

// insertEvent splices event i into its queue's chain at the position its
// declared order (chainGreater) selects, walking backward from the tail.
func (w *SlidingWindow) insertEvent(i int) {
	q := w.set.Events[i].Queue
	prev := w.qTail[q]
	for prev != trace.None && w.chainGreater(prev, i) {
		prev = w.set.Events[prev].PrevQ
		w.opWork++
	}
	w.linkAfter(i, prev, q)
}

// Append slides one sealed task into the window: its events are appended
// to the backing arrays, spliced into the queue chains at their declared
// keys with their raw times as the latent seed, and repair restores FIFO
// feasibility against the retained (latent) state. Append is
// all-or-nothing: on ErrInfeasibleSlide the task is unlinked and dropped,
// and the window is exactly as it was before the call.
func (w *SlidingWindow) Append(t SlideTask) error {
	w.opWork = 0
	nq := w.set.NumQueues
	if len(t.Events) == 0 {
		return fmt.Errorf("core: slide task has no events")
	}
	if t.Entry < 0 {
		return fmt.Errorf("core: slide task entry %v is negative", t.Entry)
	}
	for _, ev := range t.Events {
		if ev.Queue < 1 || ev.Queue >= nq {
			return fmt.Errorf("core: slide event queue %d out of range [1,%d)", ev.Queue, nq)
		}
	}

	base := len(w.set.Events)
	n := len(t.Events) + 1
	task := w.taskSeq
	w.taskSeq++

	// q0 event: arrival 0 (always observed), departure = entry time.
	w.set.Events = append(w.set.Events, trace.Event{
		Task: task, State: trace.None, Queue: 0,
		PrevQ: trace.None, NextQ: trace.None,
		PrevT: trace.None, NextT: base + 1,
		ObsArrival: true, ObsDepart: t.EntryObs,
	})
	w.set.Arr = append(w.set.Arr, 0)
	w.set.Dep = append(w.set.Dep, t.Entry)
	w.key = append(w.key, t.Entry)
	w.nextSeq++
	w.seq = append(w.seq, w.nextSeq)

	for k, ev := range t.Events {
		idx := base + 1 + k
		nextT := idx + 1
		if k == len(t.Events)-1 {
			nextT = trace.None
		}
		w.set.Events = append(w.set.Events, trace.Event{
			Task: task, State: ev.State, Queue: ev.Queue,
			PrevQ: trace.None, NextQ: trace.None,
			PrevT: idx - 1, NextT: nextT,
			ObsArrival: ev.ObsArr, ObsDepart: ev.ObsDep,
		})
		w.set.Arr = append(w.set.Arr, ev.Arr)
		w.set.Dep = append(w.set.Dep, ev.Dep)
		w.key = append(w.key, ev.Arr)
		w.nextSeq++
		w.seq = append(w.seq, w.nextSeq)
	}

	w.tasks = append(w.tasks, winTask{first: base, n: n})
	w.set.NumTasks++

	for idx := base; idx < base+n; idx++ {
		w.insertEvent(idx)
	}
	if err := w.settleTask(base); err != nil {
		w.drop(base)
		return err
	}
	return nil
}

// drop unlinks and discards the task appended at event base, the last
// one: the window returns to its state before that Append.
func (w *SlidingWindow) drop(base int) {
	for i := base; i < len(w.set.Events); i++ {
		w.unlink(i)
	}
	w.nextSeq -= uint64(len(w.set.Events) - base)
	w.set.Events = w.set.Events[:base]
	w.set.Arr = w.set.Arr[:base]
	w.set.Dep = w.set.Dep[:base]
	w.key = w.key[:base]
	w.seq = w.seq[:base]
	w.tasks = w.tasks[:len(w.tasks)-1]
	w.set.NumTasks--
	w.taskSeq--
}

// settleTask restores feasibility after the task whose events start at base
// was spliced in. When every constraint edge touching a new event holds —
// every fill and most slides — there is nothing to do. Otherwise it runs
// the feasibility pass over the region the new task can reach: per queue,
// the chain suffix that departs at or after t0, the earliest departure
// among the new events and their graph neighbours. Departures along a
// feasible chain are sorted, and any feasible state can be reached
// without moving a departure before t0, so the region is enough and every
// event outside it holds its value. The pass keeps each latent departure
// where it is, clamped between its predecessors and the pinned envelope;
// it fails only when the observed times contradict the declared order.
func (w *SlidingWindow) settleTask(base int) error {
	es := &w.set
	if w.taskHolds(base) {
		return nil
	}
	t0 := math.Inf(1)
	for i := base; i < len(es.Events); i++ {
		t0 = min(t0, nodeDepart(es, i))
		for _, u := range preds(es, i) {
			if u != trace.None {
				t0 = min(t0, nodeDepart(es, u))
			}
		}
		for _, v := range succs(es, i) {
			if v != trace.None {
				t0 = min(t0, nodeDepart(es, v))
			}
		}
	}

	// pos maps each region event to 1 + its position in the region; it
	// grows with the event arrays and is all zero between passes.
	if n := len(es.Events); len(w.pos) < n {
		w.pos = append(w.pos, make([]int32, n-len(w.pos))...)
	}
	w.region = w.region[:0]
	for q := range w.qTail {
		for i := w.qTail[q]; i != trace.None && (i >= base || nodeDepart(es, i) >= t0); i = es.Events[i].PrevQ {
			w.region = append(w.region, int32(i))
			w.pos[i] = int32(len(w.region))
		}
	}
	w.opWork += len(w.region)
	err := w.fp.clamp(es, w.region, w.pos)
	for _, i := range w.region {
		w.pos[i] = 0
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInfeasibleSlide, err)
	}
	w.sumsValid = false
	return nil
}

// taskHolds reports whether every constraint edge touching a new event
// (at or after base) holds. These are the edges of succs and preds, read
// through each new event's chain neighbours, which needs no link chase:
// its arrival before its departure (the edge from its task predecessor),
// and departure and arrival order against the events before and after it
// in its queue (the FIFO edges, and the arrival-order edges between their
// task predecessors). An edge between two new events is checked once,
// from the later one.
func (w *SlidingWindow) taskHolds(base int) bool {
	es := &w.set
	for x := base; x < len(es.Events); x++ {
		e := &es.Events[x]
		a, d := es.Arr[x], nodeDepart(es, x)
		if a > d {
			return false
		}
		if p := e.PrevQ; p != trace.None && (es.Arr[p] > a || nodeDepart(es, p) > d) {
			return false
		}
		if n := e.NextQ; n != trace.None && n < base && (a > es.Arr[n] || d > nodeDepart(es, n)) {
			return false
		}
	}
	return true
}

// EvictOldest slides the oldest task out of the window. Eviction only
// removes constraints, so it is always feasibility-safe.
func (w *SlidingWindow) EvictOldest() {
	w.opWork = 0
	if w.LiveTasks() == 0 {
		panic("core: EvictOldest on empty window")
	}
	t := w.tasks[w.taskHead]
	for k := 0; k < t.n; k++ {
		w.unlink(t.first + k)
		w.opWork++
	}
	w.taskHead++
	w.evHead = t.first + t.n
	w.set.NumTasks--
	if w.evHead >= 64 && 2*w.evHead >= len(w.set.Events) {
		w.compact()
	}
}

// compact reclaims the dead prefix in place, remapping every live index.
// Amortized O(1) per evicted event; chain order (and therefore the chain
// continuation) is untouched because sweeps visit events in chain order,
// never by index. The move list holds indices, so it is rebuilt.
func (w *SlidingWindow) compact() {
	off := w.evHead
	if off == 0 {
		return
	}
	live := len(w.set.Events) - off
	copy(w.set.Events, w.set.Events[off:])
	copy(w.set.Arr, w.set.Arr[off:])
	copy(w.set.Dep, w.set.Dep[off:])
	copy(w.key, w.key[off:])
	copy(w.seq, w.seq[off:])
	w.set.Events = w.set.Events[:live]
	w.set.Arr = w.set.Arr[:live]
	w.set.Dep = w.set.Dep[:live]
	w.key = w.key[:live]
	w.seq = w.seq[:live]
	for i := range w.set.Events {
		e := &w.set.Events[i]
		if e.PrevQ != trace.None {
			e.PrevQ -= off
		}
		if e.NextQ != trace.None {
			e.NextQ -= off
		}
		if e.PrevT != trace.None {
			e.PrevT -= off
		}
		if e.NextT != trace.None {
			e.NextT -= off
		}
	}
	for q := range w.qHead {
		if w.qHead[q] != trace.None {
			w.qHead[q] -= off
		}
		if w.qTail[q] != trace.None {
			w.qTail[q] -= off
		}
	}
	nt := len(w.tasks) - w.taskHead
	copy(w.tasks, w.tasks[w.taskHead:])
	w.tasks = w.tasks[:nt]
	for i := range w.tasks {
		w.tasks[i].first -= off
	}
	w.taskHead = 0
	w.evHead = 0
	w.movesValid = false
}

// Sweep runs one full Gibbs sweep over the live window in chain order:
// the forward pass resamples latent arrivals queue by queue head→tail
// then final departures the same way; the backward pass mirrors it
// (departures first, tail→head), preserving the alternating-scan mixing
// property. Chain order is invariant under the moves (the conditionals
// are truncated to the FIFO interval), so the move list built from the
// chains stays valid across sweeps.
func (w *SlidingWindow) Sweep(rates []float64, rng *xrand.RNG) {
	if !w.movesValid {
		w.buildMoves()
	}
	w.mc.rng = rng
	sweepMoves(&w.set, rates, &w.mc, &w.moves, w.sweeps%2 == 1)
	w.sweeps++
	w.sumsValid = false
}

// buildMoves lists the window's latent moves in chain order: queue by
// queue from 1, each chain head to tail, arrivals in one list and final
// departures in the other. latentMoves.scan's forward pass then visits
// them in that order and its backward pass in reverse.
func (w *SlidingWindow) buildMoves() {
	es := &w.set
	m := &w.moves
	m.arr, m.dep = m.arr[:0], m.dep[:0]
	for q := 1; q < es.NumQueues; q++ {
		for i := w.qHead[q]; i != trace.None; i = es.Events[i].NextQ {
			e := &es.Events[i]
			if latentArrival(e) {
				m.arr = append(m.arr, int32(i))
			}
			if latentFinalDepart(e) {
				m.dep = append(m.dep, int32(i))
			}
		}
	}
	w.movesValid = true
}

// queueSums returns the per-queue Σservice and Σwait of the live events,
// summing them in one pass if the window changed since the last read.
func (w *SlidingWindow) queueSums() (svc, wait []float64) {
	if !w.sumsValid {
		sumServiceWait(&w.set, w.evHead, w.svc, w.wait)
		w.sumsValid = true
	}
	return w.svc, w.wait
}

// MLERatesInto writes the maximum-likelihood rates of the current latent
// state into rates (length NumQueues), keeping the previous value for
// queues with no events. The arrival rate is analytic: with n entries
// spanning span = last − first entry time, λ̂ = (n−1)/span — exactly the
// legacy shift-to-zero MLE, without rebasing any time (the sampler's
// conditionals are translation-invariant, so the window keeps absolute
// stream times).
func (w *SlidingWindow) MLERatesInto(rates []float64) {
	if n := w.qCount[0]; n >= 2 {
		start, end := w.Span()
		if span := end - start; span > 0 {
			rates[0] = clampRate(float64(n-1) / span)
		}
	}
	svc, _ := w.queueSums()
	for q := 1; q < w.set.NumQueues; q++ {
		n := w.qCount[q]
		if n == 0 {
			continue
		}
		if total := svc[q]; total > 0 {
			rates[q] = clampRate(float64(n) / total)
		} else {
			rates[q] = rateCeil
		}
	}
}

// QueueMeansInto writes the current per-queue mean service and waiting
// times (NaN for empty queues). q0 reports the analytic mean interarrival
// gap as its service time and NaN wait: the window keeps absolute stream
// times, so the raw q0 sums are not meaningful summaries.
func (w *SlidingWindow) QueueMeansInto(svc, wait []float64) {
	sumSvc, sumWait := w.queueSums()
	for q := 0; q < w.set.NumQueues; q++ {
		n := w.qCount[q]
		if n == 0 || (q == 0 && n < 2) {
			svc[q] = math.NaN()
			wait[q] = math.NaN()
			continue
		}
		if q == 0 {
			start, end := w.Span()
			svc[q] = (end - start) / float64(n-1)
			wait[q] = math.NaN()
			continue
		}
		svc[q] = sumSvc[q] / float64(n)
		wait[q] = sumWait[q] / float64(n)
	}
}

// CheckInvariants verifies the full window state: chain mirroring, the
// declared chain order and the latent arrival order it implies, task
// links, coupled times, non-negative service, and counts.
// Test/debug gate — O(window).
func (w *SlidingWindow) CheckInvariants(tol float64) error {
	es := &w.set
	nq := es.NumQueues
	// latent is the chain's latent order key: the arrival, or at q0, where
	// every arrival is 0, the entry.
	latent := func(i int) float64 {
		if es.Events[i].Queue == 0 {
			return es.Dep[i]
		}
		return es.Arr[i]
	}
	seen := 0
	for q := 0; q < nq; q++ {
		prev := trace.None
		cnt := 0
		for i := w.qHead[q]; i != trace.None; i = es.Events[i].NextQ {
			e := &es.Events[i]
			if e.Queue != q {
				return fmt.Errorf("core: event %d on chain %d has queue %d", i, q, e.Queue)
			}
			if e.PrevQ != prev {
				return fmt.Errorf("core: event %d PrevQ %d, want %d", i, e.PrevQ, prev)
			}
			if prev != trace.None && w.chainGreater(prev, i) {
				return fmt.Errorf("core: queue %d declared order violated at %d (key %v after %v)",
					q, i, w.key[i], w.key[prev])
			}
			if prev != trace.None && latent(prev) > latent(i) {
				return fmt.Errorf("core: queue %d latent arrival order violated at %d (%v > %v)",
					q, i, latent(prev), latent(i))
			}
			if svc, _ := w.svcWait(i); svc < -tol {
				return fmt.Errorf("core: event %d service %v < 0", i, svc)
			}
			if q == 0 && es.Arr[i] != 0 {
				return fmt.Errorf("core: q0 event %d arrival %v != 0", i, es.Arr[i])
			}
			prev = i
			cnt++
		}
		if prev != w.qTail[q] {
			return fmt.Errorf("core: queue %d tail %d, want %d", q, w.qTail[q], prev)
		}
		if cnt != w.qCount[q] {
			return fmt.Errorf("core: queue %d count %d, want %d", q, w.qCount[q], cnt)
		}
		seen += cnt
	}
	if seen != w.LiveEvents() {
		return fmt.Errorf("core: %d chained events, %d live", seen, w.LiveEvents())
	}
	if w.set.NumTasks != w.LiveTasks() {
		return fmt.Errorf("core: NumTasks %d, live %d", w.set.NumTasks, w.LiveTasks())
	}
	for ti := w.taskHead; ti < len(w.tasks); ti++ {
		t := w.tasks[ti]
		for k := 0; k < t.n; k++ {
			i := t.first + k
			e := &es.Events[i]
			wantPrev, wantNext := i-1, i+1
			if k == 0 {
				wantPrev = trace.None
			}
			if k == t.n-1 {
				wantNext = trace.None
			}
			if e.PrevT != wantPrev || e.NextT != wantNext {
				return fmt.Errorf("core: event %d task links (%d,%d), want (%d,%d)",
					i, e.PrevT, e.NextT, wantPrev, wantNext)
			}
			if e.NextT != trace.None {
				if d := math.Abs(es.Dep[i] - es.Arr[e.NextT]); d > 1e-5 {
					return fmt.Errorf("core: event %d departure %v != successor arrival %v",
						i, es.Dep[i], es.Arr[e.NextT])
				}
			}
		}
	}
	return nil
}

// Clone returns a deep copy sharing no state — the "cold" reference of
// the continuation contract: a fresh sampler over the clone advances
// bit-identically to this window given the same RNG.
func (w *SlidingWindow) Clone() *SlidingWindow {
	c := NewSlidingWindow(w.set.NumQueues)
	c.set.Events = append(c.set.Events, w.set.Events...)
	c.set.Arr = append(c.set.Arr, w.set.Arr...)
	c.set.Dep = append(c.set.Dep, w.set.Dep...)
	c.set.NumTasks = w.set.NumTasks
	c.key = append(c.key, w.key...)
	c.seq = append(c.seq, w.seq...)
	c.tasks = append(c.tasks, w.tasks...)
	c.taskHead, c.evHead = w.taskHead, w.evHead
	c.taskSeq, c.nextSeq = w.taskSeq, w.nextSeq
	copy(c.qHead, w.qHead)
	copy(c.qTail, w.qTail)
	copy(c.qCount, w.qCount)
	c.sweeps = w.sweeps
	return c
}

// EventSet copies the live window into a fresh, standalone trace.EventSet
// laid out as trace.Builder lays out the same tasks sorted stably by entry
// time: tasks are numbered by a walk of the q0 chain (entry order, ties in
// insertion order), each task's events follow in path order, and ByQueue
// follows the window's queue chains. Times, observation flags and links are
// copied as they stand, so before any sweep or repair the copy equals a
// Builder rebuild of the raw tasks. The window itself is not touched.
func (w *SlidingWindow) EventSet() *trace.EventSet {
	src := &w.set
	n, nt, nq := w.LiveEvents(), w.LiveTasks(), src.NumQueues
	es := &trace.EventSet{
		Events:    make([]trace.Event, 0, n),
		Arr:       make([]float64, 0, n),
		Dep:       make([]float64, 0, n),
		NumQueues: nq,
		NumTasks:  nt,
		ByQueue:   make([][]int, nq),
		ByTask:    make([][]int, nt),
	}
	ids := make([]int, 2*n) // ByTask backing, then ByQueue backing
	remap := make([]int, n) // live window index - evHead → copy index
	k := 0
	for t := w.qHead[0]; t != trace.None; t = src.Events[t].NextQ {
		first := len(es.Events)
		for i := t; i != trace.None; i = src.Events[i].NextT {
			j := len(es.Events)
			remap[i-w.evHead] = j
			ids[j] = j
			e := src.Events[i]
			e.Task = k
			es.Events = append(es.Events, e)
			es.Arr = append(es.Arr, src.Arr[i])
			es.Dep = append(es.Dep, src.Dep[i])
		}
		es.ByTask[k] = ids[first:len(es.Events):len(es.Events)]
		k++
	}
	link := func(i int) int {
		if i == trace.None {
			return i
		}
		return remap[i-w.evHead]
	}
	for j := range es.Events {
		e := &es.Events[j]
		e.PrevQ, e.NextQ = link(e.PrevQ), link(e.NextQ)
		e.PrevT, e.NextT = link(e.PrevT), link(e.NextT)
	}
	off := n
	for q := 0; q < nq; q++ {
		if w.qCount[q] == 0 {
			continue // Builder leaves empty queues nil
		}
		start := off
		for i := w.qHead[q]; i != trace.None; i = src.Events[i].NextQ {
			ids[off] = remap[i-w.evHead]
			off++
		}
		es.ByQueue[q] = ids[start:off:off]
	}
	return es
}

// windowedStatsInto accumulates one pass of time-windowed per-queue
// summaries (same bucketing as trace.WindowedStats, by chain walk) into
// cells: cells[q][w] gains this pass's event count and summed
// service/wait means.
func (w *SlidingWindow) windowedStatsInto(lo, hi float64, n int, cells [][]trace.WindowStats) {
	width := (hi - lo) / float64(n)
	es := &w.set
	for q := 0; q < es.NumQueues; q++ {
		for i := w.qHead[q]; i != trace.None; i = es.Events[i].NextQ {
			a := es.Arr[i]
			if q == 0 {
				a = es.Dep[i] // q0 events all "arrive" at 0; bucket by entry
			}
			if a < lo || a >= hi {
				continue
			}
			b := int((a - lo) / width)
			if b >= n {
				b = n - 1
			}
			svc, wait := w.svcWait(i)
			cell := &cells[q][b]
			cell.Events++
			cell.MeanService += svc
			cell.MeanWait += wait
		}
	}
}
