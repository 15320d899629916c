package serve

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// timeTol is the tolerance for the path-order constraint a_e == d_{π(e)}
// on ingested events (matches the builder's tolerance).
const timeTol = 1e-6

// taskEvent is one ingested event with the task id stripped: inside a
// taskBuf the id is implied, so storing it per event would only duplicate
// the string across the whole window.
type taskEvent struct {
	state, queue    int
	arrival, depart float64
	obsArr, obsDep  bool
}

// taskBuf accumulates one task's events in path order until it is sealed.
// Buffers are recycled through the store's freelist once their task slides
// off the window, so steady-state ingest reuses both the struct and its
// events backing array.
type taskBuf struct {
	id     string
	seq    uint64 // creation order, for stale-open eviction
	events []taskEvent
}

// maxFreeTaskBufs bounds the freelist so a transient burst of tiny tasks
// cannot pin memory forever.
const maxFreeTaskBufs = 1024

// store is the bounded sliding window of one stream: open tasks still
// receiving events, and sealed tasks eligible for estimation. The window
// retains the most recent windowTasks sealed tasks; older ones slide off.
type store struct {
	mu          sync.Mutex
	numQueues   int
	windowTasks int

	nextSeq uint64
	open    map[string]*taskBuf
	// sealed[sealedHead:] is the window, oldest first. The slots before
	// sealedHead belonged to tasks that slid off; they are nil, and the
	// dead prefix is compacted away once it reaches the window size, so a
	// slide costs O(1) amortized.
	sealed     []*taskBuf
	sealedHead int
	free       []*taskBuf // recycled taskBufs (slid or evicted)
	// epoch counts tasks sealed over the stream's lifetime; workers use it
	// to skip re-estimating an unchanged window.
	epoch uint64

	slidTasks   uint64 // sealed tasks that slid off the window
	evictedOpen uint64 // open tasks evicted for exceeding the open cap
	// compactMoves counts the window slots compactSealedLocked has moved;
	// TestStoreSealWorkScalesFlat gates it per seal.
	compactMoves uint64

	// sealNanos is the freshness ring: the wall-clock seal time of epoch e
	// lives at slot (e-1) % len(sealNanos). Sized at twice the window (so a
	// publish that lags a full window behind still finds its seal times),
	// it is written once per seal under mu and drained by the worker at
	// publish; a zero slot means the seal time is unknown (the store was
	// restored from a snapshot, which does not carry seal times, or the
	// slot was overwritten by a later epoch).
	sealNanos []int64

	// appliedLSN is the WAL LSN of the last record applied to this store:
	// the stream's config record at creation, then each applied batch.
	// Stays zero when the server runs without a WAL. Guarded by mu.
	appliedLSN uint64
}

// minSealRing bounds the freshness ring below so tiny windows still
// retain a useful seal-time history.
const minSealRing = 64

func newStore(numQueues, windowTasks int) *store {
	ring := 2 * windowTasks
	if ring < minSealRing {
		ring = minSealRing
	}
	return &store{
		numQueues:   numQueues,
		windowTasks: windowTasks,
		open:        make(map[string]*taskBuf),
		sealNanos:   make([]int64, ring),
	}
}

// validateEvent runs the stateless checks of one ingested event — the ones
// that need no store state beyond the queue count. The ingest hot path
// calls it outside any lock; error messages are identical to the historic
// single-event append path.
func validateEvent(ev *trace.RawEvent, numQueues int) error {
	if len(ev.Task) == 0 {
		return fmt.Errorf("missing task id")
	}
	if ev.Queue < 1 || ev.Queue >= numQueues {
		return fmt.Errorf("task %s: queue %d out of range [1,%d)", ev.Task, ev.Queue, numQueues)
	}
	if math.IsNaN(ev.Arrival) || math.IsInf(ev.Arrival, 0) || math.IsNaN(ev.Depart) || math.IsInf(ev.Depart, 0) {
		return fmt.Errorf("task %s: non-finite event times", ev.Task)
	}
	if ev.Depart < ev.Arrival-timeTol {
		return fmt.Errorf("task %s: departure %v before arrival %v", ev.Task, ev.Depart, ev.Arrival)
	}
	return nil
}

// append validates one ingested event and adds it to its task, sealing the
// task when the event is final. It reports whether the event sealed a task.
// (Single-event convenience over the batch path; the HTTP handler applies
// whole decoded batches with appendBatch instead.)
func (s *store) append(ev IngestEvent) (sealed bool, err error) {
	raw := trace.RawEvent{
		Task:       []byte(ev.Task),
		State:      ev.State,
		Queue:      ev.Queue,
		Arrival:    ev.Arrival,
		Depart:     ev.Depart,
		ObsArrival: ev.ObsArrival,
		ObsDepart:  ev.ObsDepart,
		Final:      ev.Final,
	}
	if err := validateEvent(&raw, s.numQueues); err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(&raw, time.Now().UnixNano())
}

// batchEvent is one decoded, statelessly-validated event queued for batch
// application, with its body line number for error reporting and, on the
// ingest path, the line itself (raw), which is what the WAL logs. raw and
// ev.Task borrow the request body buffer, which outlives the batch.
type batchEvent struct {
	ev   trace.RawEvent
	raw  []byte
	line int
}

// appendBatch applies a batch of decoded events under ONE lock acquisition
// — the core of the batched ingest plane: the per-event lock/unlock pair of
// the old path dominated ingest CPU once decoding stopped allocating.
// Results (accepted/rejected/sealed counts, per-line errors) accumulate
// into sum exactly as the per-event path would have produced them. It
// returns the store epoch after the batch and how long acquiring the store
// lock took, which feeds the per-shard lock-wait counter. Every seal of
// the batch is stamped with the one clock read taken once the lock is
// held: no later than the true seal, so freshness is overstated by at most
// the batch's apply time.
// When wa is non-nil the batch's WAL record is appended INSIDE the store
// lock, before application: the per-stream record order in the log is then
// exactly the apply order, which is what lets replay reproduce this store
// bit for bit. A WAL append failure aborts the batch unapplied.
func (s *store) appendBatch(batch []batchEvent, sum *IngestSummary, wa *walAppend) (epoch uint64, lockWait time.Duration, err error) {
	if len(batch) == 0 {
		return 0, 0, nil
	}
	t0 := time.Now()
	s.mu.Lock()
	now := time.Now()
	lockWait = now.Sub(t0)
	sealNS := now.UnixNano()
	if wa != nil {
		var at0 int64
		if wa.root != 0 {
			at0 = time.Now().UnixNano()
		}
		lsn, werr := wa.log.Append(wa.rec)
		if werr != nil {
			s.mu.Unlock()
			return 0, lockWait, werr
		}
		s.appliedLSN = lsn
		if wa.root != 0 {
			wa.tr.Record(obs.Span{ID: wa.tr.Child(wa.root), Parent: wa.root,
				Kind: spanWALAppend, Stream: wa.stream, StartNS: at0, EndNS: time.Now().UnixNano()})
		}
	}
	for i := range batch {
		be := &batch[i]
		didSeal, err := s.appendLocked(&be.ev, sealNS)
		if err != nil {
			sum.reject(be.line, err)
			continue
		}
		sum.Accepted++
		if didSeal {
			sum.SealedTasks++
		}
	}
	epoch = s.epoch
	s.mu.Unlock()
	return epoch, lockWait, nil
}

// applyRecovered re-applies one replayed WAL batch. Rejects are recomputed
// rather than replayed: the logged events were all statelessly valid, and
// the stateful checks (path order, negative entry) are deterministic
// functions of store state, so the same events fail the same way they did
// at original ingest.
func (s *store) applyRecovered(batch []batchEvent, lsn uint64) {
	s.mu.Lock()
	sealNS := time.Now().UnixNano()
	for i := range batch {
		_, _ = s.appendLocked(&batch[i].ev, sealNS)
	}
	s.appliedLSN = lsn
	s.mu.Unlock()
}

// appendLocked adds one statelessly-validated event to its task; a seal is
// stamped with sealNS for freshness accounting. ev.Task is only
// materialized into a string for tasks not yet open (the map lookup itself
// compiles to an alloc-free string view).
func (s *store) appendLocked(ev *trace.RawEvent, sealNS int64) (sealed bool, err error) {
	tb, ok := s.open[string(ev.Task)]
	if !ok {
		if ev.Arrival < 0 {
			return false, fmt.Errorf("task %s: negative entry time %v", ev.Task, ev.Arrival)
		}
		tb = s.newTaskLocked(string(ev.Task))
		s.open[tb.id] = tb
		s.capOpenLocked()
	} else {
		prev := &tb.events[len(tb.events)-1]
		if math.Abs(prev.depart-ev.Arrival) > timeTol {
			return false, fmt.Errorf("task %s: arrival %v != previous departure %v (events must be in path order)",
				ev.Task, ev.Arrival, prev.depart)
		}
	}
	tb.events = append(tb.events, taskEvent{
		state:   ev.State,
		queue:   ev.Queue,
		arrival: ev.Arrival,
		depart:  ev.Depart,
		obsArr:  ev.ObsArrival,
		obsDep:  ev.ObsDepart,
	})
	if !ev.Final {
		return false, nil
	}
	delete(s.open, tb.id)
	s.sealed = append(s.sealed, tb)
	s.epoch++
	s.sealNanos[(s.epoch-1)%uint64(len(s.sealNanos))] = sealNS
	for len(s.sealed)-s.sealedHead > s.windowTasks {
		s.recycleLocked(s.sealed[s.sealedHead])
		s.sealed[s.sealedHead] = nil // drop the stale pointer so the slid task can be collected
		s.sealedHead++
		s.slidTasks++
	}
	if s.sealedHead > 0 && s.sealedHead >= s.windowTasks {
		s.compactSealedLocked()
	}
	return true, nil
}

// compactSealedLocked moves the window to the front of sealed, dropping
// the dead prefix. It runs once per windowTasks slides and moves at most
// windowTasks slots, so each slide costs O(1) amortized.
func (s *store) compactSealedLocked() {
	n := copy(s.sealed, s.sealed[s.sealedHead:])
	clear(s.sealed[n:])
	s.sealed = s.sealed[:n]
	s.sealedHead = 0
	s.compactMoves += uint64(n)
}

// windowLocked returns the sealed tasks in the window, oldest first.
func (s *store) windowLocked() []*taskBuf { return s.sealed[s.sealedHead:] }

// newTaskLocked takes a taskBuf from the freelist (or allocates one) and
// claims the next sequence number for it.
func (s *store) newTaskLocked(id string) *taskBuf {
	var tb *taskBuf
	if n := len(s.free); n > 0 {
		tb = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		tb = &taskBuf{}
	}
	tb.id = id
	tb.seq = s.nextSeq
	s.nextSeq++
	return tb
}

// recycleLocked returns a retired taskBuf (and its events capacity) to the
// freelist. Callers must have removed it from open/sealed already.
func (s *store) recycleLocked(tb *taskBuf) {
	if len(s.free) >= maxFreeTaskBufs {
		return
	}
	tb.id = ""
	tb.events = tb.events[:0]
	s.free = append(s.free, tb)
}

// capOpenLocked evicts the stalest open task when the open map outgrows
// the window bound, so tasks that never finalize cannot leak memory.
func (s *store) capOpenLocked() {
	if len(s.open) <= s.windowTasks {
		return
	}
	var oldest *taskBuf
	for _, tb := range s.open {
		if oldest == nil || tb.seq < oldest.seq {
			oldest = tb
		}
	}
	delete(s.open, oldest.id)
	s.recycleLocked(oldest)
	s.evictedOpen++
}

// counts returns (sealed tasks in window, open tasks, epoch).
func (s *store) counts() (sealed, open int, epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.windowLocked()), len(s.open), s.epoch
}

// dropStats returns the cumulative slid/evicted counters.
func (s *store) dropStats() (slid, evictedOpen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slidTasks, s.evictedOpen
}

// drainSealTimes visits the seal time of every epoch in (from, to],
// oldest first, for freshness accounting at publish: the worker calls it
// exactly once per newly covered epoch range, so each sealed task's
// seal→publish latency is recorded exactly once. Epochs whose seal time
// is unavailable (slot overwritten because the publish lagged more than
// the ring, or zero because the store was snapshot-restored) are counted
// in lost instead of visited. fn runs under the store lock and must not
// block (the freshness instruments are atomics-only).
func (s *store) drainSealTimes(from, to uint64, fn func(sealNS int64)) (lost uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ring := uint64(len(s.sealNanos))
	if to > s.epoch {
		to = s.epoch
	}
	for e := from + 1; e <= to; e++ {
		if e+ring <= s.epoch {
			lost++ // slot reused by epoch e+ring or later
			continue
		}
		ns := s.sealNanos[(e-1)%ring]
		if ns == 0 {
			lost++
			continue
		}
		fn(ns)
	}
	return lost
}

// oldestUnpublishedSeal returns the seal time of the oldest epoch not yet
// covered by a published estimate (epoch published+1), or 0 when the
// stream is fully published or the seal time is unknown. It feeds the
// per-stream freshness-lag gauge.
func (s *store) oldestUnpublishedSeal(published uint64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.epoch <= published {
		return 0
	}
	ring := uint64(len(s.sealNanos))
	first := published + 1
	if first+ring <= s.epoch {
		first = s.epoch - ring + 1 // older slots are overwritten
	}
	for e := first; e <= s.epoch; e++ {
		if ns := s.sealNanos[(e-1)%ring]; ns != 0 {
			return ns
		}
	}
	return 0
}

// delta copies the tasks sealed after epoch since into dst (reusing its
// backing storage, including the nested event slices), for the warm
// inference path: the caller applies them as incremental window slides
// instead of rebuilding from scratch. It also returns the store's current
// epoch and window size. ok reports whether the returned tasks are exactly
// the seals since `since`; when the stream sealed more tasks than the
// window retains in the meantime (the delta can no longer be reconstructed
// from the sealed ring), delta returns the ENTIRE current window with
// ok=false and the caller must reset its window and rebuild it.
func (s *store) delta(since uint64, dst []core.SlideTask) (tasks []core.SlideTask, epoch uint64, window int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	epoch = s.epoch
	sealed := s.windowLocked()
	window = len(sealed)
	n := int(epoch - since)
	ok = since <= epoch && n <= window
	if !ok {
		n = window
	}
	if cap(dst) < n {
		grown := make([]core.SlideTask, n)
		// Preserve the recycled Events capacity of every old element.
		copy(grown, dst[:cap(dst)])
		dst = grown
	}
	dst = dst[:n]
	for i, tb := range sealed[window-n:] {
		d := &dst[i]
		entry := tb.events[0]
		d.Entry = entry.arrival
		d.EntryObs = entry.obsArr
		d.Events = d.Events[:0]
		for _, ev := range tb.events {
			d.Events = append(d.Events, core.SlideEvent{
				Queue: ev.queue, State: ev.state,
				Arr: ev.arrival, Dep: ev.depart,
				ObsArr: ev.obsArr, ObsDep: ev.obsDep,
			})
		}
	}
	return dst, epoch, window, ok
}

// eventSnap / taskSnap / storeSnap are the JSON serialization of a store
// for WAL snapshots. encoding/json round-trips float64 exactly (shortest
// round-trip representation), so a restored store is bit-identical to the
// snapshotted one.
type eventSnap struct {
	State   int     `json:"s,omitempty"`
	Queue   int     `json:"q"`
	Arrival float64 `json:"a"`
	Depart  float64 `json:"d"`
	ObsArr  bool    `json:"oa,omitempty"`
	ObsDep  bool    `json:"od,omitempty"`
}

type taskSnap struct {
	ID     string      `json:"id"`
	Seq    uint64      `json:"seq"`
	Events []eventSnap `json:"events"`
}

type storeSnap struct {
	NextSeq     uint64     `json:"next_seq"`
	Epoch       uint64     `json:"epoch"`
	SlidTasks   uint64     `json:"slid_tasks,omitempty"`
	EvictedOpen uint64     `json:"evicted_open,omitempty"`
	AppliedLSN  uint64     `json:"applied_lsn"`
	Open        []taskSnap `json:"open,omitempty"`
	Sealed      []taskSnap `json:"sealed,omitempty"`
}

func snapTask(tb *taskBuf) taskSnap {
	ts := taskSnap{ID: tb.id, Seq: tb.seq, Events: make([]eventSnap, len(tb.events))}
	for i, ev := range tb.events {
		ts.Events[i] = eventSnap{
			State: ev.state, Queue: ev.queue,
			Arrival: ev.arrival, Depart: ev.depart,
			ObsArr: ev.obsArr, ObsDep: ev.obsDep,
		}
	}
	return ts
}

// snapshot captures the store's full logical state, and the WAL LSN that
// state covers, under one lock acquisition. Open tasks are emitted in seq
// order so the snapshot bytes are deterministic.
func (s *store) snapshot() storeSnap {
	s.mu.Lock()
	defer s.mu.Unlock()
	sn := storeSnap{
		NextSeq: s.nextSeq, Epoch: s.epoch,
		SlidTasks: s.slidTasks, EvictedOpen: s.evictedOpen,
		AppliedLSN: s.appliedLSN,
	}
	for _, tb := range s.open {
		sn.Open = append(sn.Open, snapTask(tb))
	}
	sort.Slice(sn.Open, func(i, j int) bool { return sn.Open[i].Seq < sn.Open[j].Seq })
	for _, tb := range s.windowLocked() {
		sn.Sealed = append(sn.Sealed, snapTask(tb))
	}
	return sn
}

func restoreTask(ts *taskSnap) *taskBuf {
	tb := &taskBuf{id: ts.ID, seq: ts.Seq, events: make([]taskEvent, len(ts.Events))}
	for i := range ts.Events {
		ev := &ts.Events[i]
		tb.events[i] = taskEvent{
			state: ev.State, queue: ev.Queue,
			arrival: ev.Arrival, depart: ev.Depart,
			obsArr: ev.ObsArr, obsDep: ev.ObsDep,
		}
	}
	return tb
}

// restore loads a snapshot into a freshly created store. No locking: the
// store is not yet shared when recovery runs.
func (s *store) restore(sn *storeSnap) {
	s.nextSeq = sn.NextSeq
	s.epoch = sn.Epoch
	s.slidTasks = sn.SlidTasks
	s.evictedOpen = sn.EvictedOpen
	s.appliedLSN = sn.AppliedLSN
	for i := range sn.Open {
		tb := restoreTask(&sn.Open[i])
		s.open[tb.id] = tb
	}
	for i := range sn.Sealed {
		s.sealed = append(s.sealed, restoreTask(&sn.Sealed[i]))
	}
}
