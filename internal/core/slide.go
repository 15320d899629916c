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
// each queue's arrival-ordered chain by a backward walk from the tail
// (new tasks are recent, so the walk is short), evicted tasks are
// unlinked from the head, and the dead prefix of the backing arrays is
// reclaimed by an amortized compaction once it outgrows the live suffix.
// A deterministic push-forward/pull-back repair pass restores FIFO
// feasibility after a splice by adjusting only latent times; if a repair
// would move an observed time, the slide fails and the caller falls back
// to a cold rebuild.
//
// The continuation contract: after any sequence of slides, the sampler
// state (chains, latent times, sweep parity) is exactly the
// state a cold construction over the same live tasks and latent values
// would produce, so continuing the chain is bit-identical to a fresh
// sampler seeded from a clone of this state given the same RNG — see
// TestIncrementalSlideBitIdentical and DESIGN.md §16.

// ErrInfeasibleSlide reports that an incremental slide could not restore
// FIFO feasibility without moving an observed time (or exceeded its repair
// budget). The caller should rebuild the window cold.
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

// repSetCount tracks how often one event's departure moved in a repair.
type repSetCount struct{ idx, n int }

// winTask records one task's contiguous event block.
type winTask struct {
	first int // index of the task's q0 event
	n     int // events including the q0 event
}

// SlidingWindow is the incremental window state. The zero value is not
// ready; use NewSlidingWindow.
type SlidingWindow struct {
	set trace.EventSet // Events/Arr/Dep storage; ByQueue/ByTask stay nil

	// seq is the per-event insertion sequence number, the deterministic
	// tie-break for equal chain keys: a fresh window built from the same
	// tasks in the same order reproduces identical chains.
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

	mc   moveCtx // the sweep's RNG and skip counter
	work []int   // repair worklist (reused)

	// repSets counts per-event setDep calls within one repair pass: a
	// residual cross-queue ping-pong (push-forward vs pull-back fighting
	// over one boundary) is cut off fast instead of burning the budget.
	repSets     []repSetCount
	inRepair    bool
	repOverflow bool

	// opWork counts chain-walk steps and repair iterations of the last
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

// LastOpWork returns the chain-walk steps plus repair iterations of the
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

// chainKey is the queue-chain sort key: arrival time, except at q0 where
// every arrival is 0 and the departure (= task entry) orders the chain.
func (w *SlidingWindow) chainKey(i int) float64 {
	if w.set.Events[i].Queue == 0 {
		return w.set.Dep[i]
	}
	return w.set.Arr[i]
}

// chainGreater reports whether a sorts after b in their queue's chain.
func (w *SlidingWindow) chainGreater(a, b int) bool {
	ka, kb := w.chainKey(a), w.chainKey(b)
	if ka != kb {
		return ka > kb
	}
	return w.seq[a] > w.seq[b]
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
// (key, seq) pair selects, walking backward from the tail.
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
// to the backing arrays, spliced into the queue chains with their raw
// times as the latent seed, and the repair pass restores FIFO feasibility
// against the retained (latent) state. On ErrInfeasibleSlide the window
// must be rebuilt cold (Reset + re-Append) — its state may hold a
// partially repaired splice.
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
		w.nextSeq++
		w.seq = append(w.seq, w.nextSeq)
	}

	w.tasks = append(w.tasks, winTask{first: base, n: n})
	w.set.NumTasks++

	// Splice, then repair: each new event plus its queue successor can
	// carry a violated constraint.
	w.work = w.work[:0]
	for idx := base; idx < base+n; idx++ {
		w.insertEvent(idx)
	}
	for idx := base; idx < base+n; idx++ {
		w.work = append(w.work, idx)
		if s := w.set.Events[idx].NextQ; s != trace.None {
			w.work = append(w.work, s)
		}
	}
	return w.repair(256 + 64*n)
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
	copy(w.seq, w.seq[off:])
	w.set.Events = w.set.Events[:live]
	w.set.Arr = w.set.Arr[:live]
	w.set.Dep = w.set.Dep[:live]
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

// depLatent reports whether event i's departure is free to move: a final
// event's unobserved departure, or a non-final event whose task
// successor's arrival (the same number) is unobserved.
func (w *SlidingWindow) depLatent(i int) bool { return !pinnedDepart(&w.set, i) }

// setDep writes event i's departure through the coupled-storage rules
// (SetArrival on the task successor, or SetFinalDepart).
func (w *SlidingWindow) setDep(i int, t float64) {
	if w.inRepair {
		w.noteRepSet(i)
	}
	if s := w.set.Events[i].NextT; s == trace.None {
		w.set.SetFinalDepart(i, t)
	} else {
		w.set.SetArrival(s, t)
	}
	w.sumsValid = false
}

// misplaced reports whether event i violates its chain's (key, seq)
// order against either neighbor.
func (w *SlidingWindow) misplaced(i int) bool {
	e := &w.set.Events[i]
	if p := e.PrevQ; p != trace.None && w.chainGreater(p, i) {
		return true
	}
	if n := e.NextQ; n != trace.None && w.chainGreater(i, n) {
		return true
	}
	return false
}

// pushWork queues i for a repair check.
func (w *SlidingWindow) pushWork(i int) {
	if i != trace.None {
		w.work = append(w.work, i)
	}
}

// repairTol matches the ingest store's time tolerance: raw event pairs
// may disagree by up to 1e-6, and the repair pass must accept any state
// the store accepts (the resamplers skip degenerate intervals anyway).
const repairTol = 1e-6

// noteRepSet counts a repair-pass departure move of event i; more than 8
// moves of one event flag an oscillation.
func (w *SlidingWindow) noteRepSet(i int) {
	for k := range w.repSets {
		if w.repSets[k].idx == i {
			w.repSets[k].n++
			if w.repSets[k].n > 8 {
				w.repOverflow = true
			}
			return
		}
	}
	w.repSets = append(w.repSets, repSetCount{i, 1})
}

// repair drains the feasibility worklist until every queued event is in
// chain (key, seq) order with non-negative service. FIFO feasibility per
// queue is exactly "departures non-decreasing in arrival order", and only
// latent times may move, so each violation is classified by its driving
// term: a latent predecessor departure is pulled back, a latent own
// departure is pushed forward (but never past a pinned successor
// departure), a latent own arrival is pulled back, and two *pinned*
// departures that cross are reordered by moving a latent arrival so
// service order matches departure order (sweeps drift tail arrivals
// forward without knowing the future; an appended observed task exposes
// that). A violation pinned on every side fails with ErrInfeasibleSlide,
// as does exceeding the budget.
func (w *SlidingWindow) repair(budget int) error {
	w.repSets = w.repSets[:0]
	w.inRepair, w.repOverflow = true, false
	defer func() { w.inRepair = false }()
	for len(w.work) > 0 {
		if budget--; budget < 0 {
			return fmt.Errorf("%w: repair budget exhausted", ErrInfeasibleSlide)
		}
		if w.repOverflow {
			return fmt.Errorf("%w: repair oscillation detected", ErrInfeasibleSlide)
		}
		w.opWork++
		i := w.work[len(w.work)-1]
		w.work = w.work[:len(w.work)-1]
		e := &w.set.Events[i]

		if e.PrevQ == trace.None && e.NextQ == trace.None && w.qHead[e.Queue] != i {
			continue // unlinked (stale entry)
		}
		if w.misplaced(i) {
			oldPrev, oldNext := e.PrevQ, e.NextQ
			w.unlink(i)
			w.insertEvent(i)
			w.pushWork(oldNext)
			w.pushWork(oldPrev)
			w.pushWork(w.set.Events[i].NextQ)
			w.pushWork(i)
			continue
		}
		start := w.set.ServiceStart(i)
		if w.set.Dep[i] >= start-repairTol {
			continue
		}
		// Service negative: departure earlier than the service start.
		if p := e.PrevQ; p != trace.None && w.set.Dep[p] > w.set.Dep[i] {
			// Driving term: the predecessor's departure.
			if w.depLatent(p) {
				w.setDep(p, w.set.Dep[i])
				w.pushWork(p)
				w.pushWork(i)
				if s := w.set.Events[p].NextT; s != trace.None {
					w.pushWork(s)
				}
				continue
			}
			// Predecessor departure pinned.
			if w.depLatent(i) {
				// Push the own latent departure forward — unless a pinned
				// successor departure caps it below the start (pinned
				// departures crossing around i): then the chain must
				// reorder instead.
				s := e.NextQ
				if s != trace.None && w.set.Dep[s] < start && !w.depLatent(s) && w.set.Dep[p] > w.set.Dep[s] {
					if !w.reorderPinned(p, s) {
						return fmt.Errorf("%w: pinned departures cross at events %d,%d (queue %d)",
							ErrInfeasibleSlide, p, s, e.Queue)
					}
					w.pushWork(p)
					w.pushWork(s)
					w.pushWork(i)
					continue
				}
				w.pushForward(i, start)
				continue
			}
			// Both departures pinned: reorder i before p.
			if !w.reorderPinned(p, i) {
				return fmt.Errorf("%w: pinned departures cross at events %d,%d (queue %d)",
					ErrInfeasibleSlide, p, i, e.Queue)
			}
			w.pushWork(p)
			w.pushWork(i)
			continue
		}
		// Driving term: the own arrival exceeds the departure. Prefer
		// raising the latent departure (purely local) — unless a pinned
		// successor departure caps it below the start, in which case the
		// arrival must come back (or, with the arrival pinned too, the
		// successor must re-sort first: its own arrival necessarily
		// violates arr <= dep or the chain order once visited).
		s := e.NextQ
		capped := s != trace.None && !w.depLatent(s) && w.set.Dep[s] < start
		switch {
		case w.depLatent(i) && !capped:
			w.pushForward(i, start)
		case e.PrevT != trace.None && !e.ObsArrival:
			w.setDep(e.PrevT, w.set.Dep[i]) // pull the arrival back
			w.pushWork(e.PrevT)
			w.pushWork(i)
		case capped:
			w.pushWork(i)
			w.pushWork(s)
		default:
			return fmt.Errorf("%w: event %d (queue %d) service %v < 0 with observed bounds",
				ErrInfeasibleSlide, i, e.Queue, w.set.Dep[i]-start)
		}
		continue
	}
	return nil
}

// pushForward moves event i's latent departure up to its service start and
// queues the affected neighborhood.
func (w *SlidingWindow) pushForward(i int, start float64) {
	e := &w.set.Events[i]
	w.setDep(i, start)
	w.pushWork(i)
	w.pushWork(e.NextQ)
	if s := e.NextT; s != trace.None {
		w.pushWork(s) // its arrival moved: order + service
	} else if e.Queue == 0 {
		w.pushWork(i) // q0 key is the departure
	}
}

// reorderPinned resolves two crossed pinned departures — a before b in
// chain order but Dep[a] > Dep[b] — by moving one latent arrival so b
// serves first: a's arrival forward past b's key, or b's arrival back
// below a's. Reports whether a move was possible; the caller re-queues
// both events (the moved one re-sorts via the misplaced check).
func (w *SlidingWindow) reorderPinned(a, b int) bool {
	ea, eb := &w.set.Events[a], &w.set.Events[b]
	if ea.PrevT != trace.None && !ea.ObsArrival && w.set.Dep[b] > w.chainKey(b) {
		// arr[a] = Dep[b]: sorts a strictly after b, and Dep[a] > Dep[b]
		// keeps a's own service non-negative.
		w.setDep(ea.PrevT, w.set.Dep[b])
		w.pushWork(ea.PrevT)
		return true
	}
	if eb.PrevT != trace.None && !eb.ObsArrival {
		target := math.Min(w.set.Dep[b], w.chainKey(a))
		if target == w.chainKey(a) && w.seq[b] > w.seq[a] {
			// Equal keys order by insertion seq; force a strict win.
			target = math.Nextafter(target, math.Inf(-1))
		}
		if target >= 0 {
			w.setDep(eb.PrevT, target)
			w.pushWork(eb.PrevT)
			return true
		}
	}
	return false
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

// CheckInvariants verifies the full window state: chain mirroring and
// order, task links, coupled times, non-negative service, and counts.
// Test/debug gate — O(window).
func (w *SlidingWindow) CheckInvariants(tol float64) error {
	es := &w.set
	nq := es.NumQueues
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
			if prev != trace.None && w.chainKey(prev) > w.chainKey(i) {
				return fmt.Errorf("core: queue %d chain key order violated at %d (%v > %v)",
					q, i, w.chainKey(prev), w.chainKey(i))
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
