// Package trace defines the event-set data model at the heart of the paper:
// a set of events e = (task, state, queue, arrival, departure) with
// within-queue predecessor links ρ(e) and within-task predecessor links
// π(e), plus the deterministic FIFO structure
//
//	a_e = d_{π(e)}
//	d_e = s_e + max(a_e, d_{ρ(e)})
//
// so that service times are a deterministic function of the arrival and
// departure times. Every task has an initial event at queue 0 (q0) arriving
// at time 0 and departing at the task's system entry time.
//
// The package also implements the observation model of the experiments:
// observing the complete arrival sequence of a sampled subset of tasks,
// while for unobserved events only the per-queue arrival *order* is known
// (the paper's event-counter assumption).
package trace

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// None marks a missing link index.
const None = -1

// Event is the cold, structural half of one state transition of one task:
// its identity, links, and observation flags. The event *times* — the only
// fields the Gibbs sweep reads and writes millions of times per run — live
// in the EventSet's dense Arr/Dep slices (structure-of-arrays layout), so a
// conditional evaluation touches two 8-byte lanes instead of dragging this
// whole record through cache.
type Event struct {
	// Task is the task index in [0, NumTasks).
	Task int
	// State is the FSM state that emitted this event.
	State int
	// Queue is the queue index; 0 is the arrival queue q0.
	Queue int

	// PrevQ is ρ(e): the previous event to arrive at Queue (None if first).
	PrevQ int
	// NextQ is ρ⁻¹(e): the next event to arrive at Queue (None if last).
	NextQ int
	// PrevT is π(e): the task's previous event (None for initial events).
	PrevT int
	// NextT is the task's next event (None for the final event).
	NextT int

	// ObsArrival marks the arrival time as observed (fixed for inference).
	ObsArrival bool
	// ObsDepart marks the departure time as observed; it only constrains
	// inference for final events (otherwise the departure is the next
	// event's arrival).
	ObsDepart bool
}

// Initial reports whether this is a task's initial q0 event.
func (e *Event) Initial() bool { return e.PrevT == None }

// Final reports whether this is a task's final event.
func (e *Event) Final() bool { return e.NextT == None }

// EventSet is a complete, linked set of events. Construct with a Builder or
// FromEvents; direct construction will not have links populated.
//
// Times are stored structure-of-arrays: Arr[i] and Dep[i] are event i's
// arrival and departure. Arr, Dep and Events always have equal length.
// Mutate times through SetArrival/SetFinalDepart (which maintain the
// a_e = d_{π(e)} identity) unless you are the sampler hot path and know the
// invariant is preserved by construction.
type EventSet struct {
	Events []Event
	// Arr[i] is event i's arrival time a_e.
	Arr []float64
	// Dep[i] is event i's departure time d_e.
	Dep       []float64
	NumQueues int
	NumTasks  int
	// ByQueue[q] lists event indices at queue q in arrival order.
	ByQueue [][]int
	// ByTask[k] lists event indices of task k in path order (initial event
	// first).
	ByTask [][]int
}

// Arrival returns a_e, event i's arrival time.
func (s *EventSet) Arrival(i int) float64 { return s.Arr[i] }

// Depart returns d_e, event i's departure time.
func (s *EventSet) Depart(i int) float64 { return s.Dep[i] }

// ServiceTime returns s_e = d_e - max(a_e, d_ρ(e)), the deterministic
// service time of event i.
func (s *EventSet) ServiceTime(i int) float64 {
	return s.Dep[i] - s.ServiceStart(i)
}

// ServiceStart returns max(a_e, d_ρ(e)), the time service begins.
func (s *EventSet) ServiceStart(i int) float64 {
	start := s.Arr[i]
	if p := s.Events[i].PrevQ; p != None {
		if d := s.Dep[p]; d > start {
			start = d
		}
	}
	return start
}

// WaitTime returns w_e = ServiceStart - a_e, the queueing delay of event i.
func (s *EventSet) WaitTime(i int) float64 {
	return s.ServiceStart(i) - s.Arr[i]
}

// ResponseTime returns d_e - a_e = w_e + s_e.
func (s *EventSet) ResponseTime(i int) float64 {
	return s.Dep[i] - s.Arr[i]
}

// SetArrival sets the arrival time of event i, keeping the invariant
// a_e == d_{π(e)} by also writing the within-task predecessor's departure.
func (s *EventSet) SetArrival(i int, t float64) {
	s.Arr[i] = t
	if p := s.Events[i].PrevT; p != None {
		s.Dep[p] = t
	}
}

// SetFinalDepart sets the departure time of event i, which must be a
// task's final event — for non-final events the departure is the next
// event's arrival (the same latent variable) and must be written through
// SetArrival on the successor instead.
func (s *EventSet) SetFinalDepart(i int, t float64) {
	if s.Events[i].NextT != None {
		panic(fmt.Sprintf("trace: SetFinalDepart on non-final event %d", i))
	}
	s.Dep[i] = t
}

// SumServiceWaitByQueue returns the per-queue totals Σ service time and
// Σ waiting time over all events, queue by queue. It is the reference the
// samplers' one-pass sums are tested against.
func (s *EventSet) SumServiceWaitByQueue() (svc, wait []float64) {
	svc = make([]float64, s.NumQueues)
	wait = make([]float64, s.NumQueues)
	for q, ids := range s.ByQueue {
		var sv, wt float64
		for _, id := range ids {
			start := s.ServiceStart(id)
			sv += s.Dep[id] - start
			wt += start - s.Arr[id]
		}
		svc[q] = sv
		wait[q] = wt
	}
	return svc, wait
}

// TaskEntry returns the system entry time of task k (the departure of its
// initial event).
func (s *EventSet) TaskEntry(k int) float64 {
	return s.Dep[s.ByTask[k][0]]
}

// TaskExit returns the departure time of task k's final event.
func (s *EventSet) TaskExit(k int) float64 {
	ids := s.ByTask[k]
	return s.Dep[ids[len(ids)-1]]
}

// Validate checks every structural and deterministic constraint: link
// consistency, a_e = d_{π(e)}, non-negative service times, per-queue arrival
// order, and initial events arriving at time 0 at q0. tol allows tiny
// negative service times from floating-point round-off (pass 0 for exact).
func (s *EventSet) Validate(tol float64) error {
	if len(s.ByQueue) != s.NumQueues {
		return fmt.Errorf("trace: ByQueue has %d queues, want %d", len(s.ByQueue), s.NumQueues)
	}
	if len(s.ByTask) != s.NumTasks {
		return fmt.Errorf("trace: ByTask has %d tasks, want %d", len(s.ByTask), s.NumTasks)
	}
	if len(s.Arr) != len(s.Events) || len(s.Dep) != len(s.Events) {
		return fmt.Errorf("trace: time lanes have %d/%d entries for %d events",
			len(s.Arr), len(s.Dep), len(s.Events))
	}
	for i := range s.Events {
		e := &s.Events[i]
		if e.Queue < 0 || e.Queue >= s.NumQueues {
			return fmt.Errorf("trace: event %d queue %d out of range", i, e.Queue)
		}
		if e.Task < 0 || e.Task >= s.NumTasks {
			return fmt.Errorf("trace: event %d task %d out of range", i, e.Task)
		}
		if math.IsNaN(s.Arr[i]) || math.IsNaN(s.Dep[i]) {
			return fmt.Errorf("trace: event %d has NaN times", i)
		}
		if e.PrevT != None {
			if s.Events[e.PrevT].NextT != i {
				return fmt.Errorf("trace: event %d PrevT link not mirrored", i)
			}
			if math.Abs(s.Dep[e.PrevT]-s.Arr[i]) > tol {
				return fmt.Errorf("trace: event %d arrival %v != predecessor departure %v",
					i, s.Arr[i], s.Dep[e.PrevT])
			}
		} else {
			if e.Queue != 0 {
				return fmt.Errorf("trace: event %d has no task predecessor but queue %d != q0", i, e.Queue)
			}
			if s.Arr[i] != 0 {
				return fmt.Errorf("trace: initial event %d arrives at %v, want 0", i, s.Arr[i])
			}
		}
		if e.NextT != None && s.Events[e.NextT].PrevT != i {
			return fmt.Errorf("trace: event %d NextT link not mirrored", i)
		}
		if e.PrevQ != None && s.Events[e.PrevQ].NextQ != i {
			return fmt.Errorf("trace: event %d PrevQ link not mirrored", i)
		}
		if e.NextQ != None && s.Events[e.NextQ].PrevQ != i {
			return fmt.Errorf("trace: event %d NextQ link not mirrored", i)
		}
		if sv := s.ServiceTime(i); sv < -tol {
			return fmt.Errorf("trace: event %d has negative service time %v", i, sv)
		}
	}
	for q, ids := range s.ByQueue {
		for j := range ids {
			e := &s.Events[ids[j]]
			if e.Queue != q {
				return fmt.Errorf("trace: ByQueue[%d][%d] = event %d is at queue %d", q, j, ids[j], e.Queue)
			}
			if j > 0 {
				if s.Arr[ids[j-1]] > s.Arr[ids[j]]+tol {
					return fmt.Errorf("trace: queue %d arrival order violated at position %d (%v > %v)",
						q, j, s.Arr[ids[j-1]], s.Arr[ids[j]])
				}
				if e.PrevQ != ids[j-1] {
					return fmt.Errorf("trace: event %d PrevQ = %d, want %d", ids[j], e.PrevQ, ids[j-1])
				}
			} else if e.PrevQ != None {
				return fmt.Errorf("trace: first event %d at queue %d has PrevQ %d", ids[j], q, e.PrevQ)
			}
			// FIFO departure order follows from d = s + max(a, d_prev) with
			// s >= 0, checked above.
		}
	}
	for k, ids := range s.ByTask {
		if len(ids) == 0 {
			return fmt.Errorf("trace: task %d has no events", k)
		}
		if !s.Events[ids[0]].Initial() {
			return fmt.Errorf("trace: task %d does not start with an initial event", k)
		}
		for j, id := range ids {
			if s.Events[id].Task != k {
				return fmt.Errorf("trace: ByTask[%d][%d] = event %d belongs to task %d", k, j, id, s.Events[id].Task)
			}
			if j > 0 && s.Events[id].PrevT != ids[j-1] {
				return fmt.Errorf("trace: task %d chain broken at position %d", k, j)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the event set.
func (s *EventSet) Clone() *EventSet {
	c := &EventSet{
		Events:    append([]Event(nil), s.Events...),
		Arr:       append([]float64(nil), s.Arr...),
		Dep:       append([]float64(nil), s.Dep...),
		NumQueues: s.NumQueues,
		NumTasks:  s.NumTasks,
		ByQueue:   make([][]int, len(s.ByQueue)),
		ByTask:    make([][]int, len(s.ByTask)),
	}
	for q := range s.ByQueue {
		c.ByQueue[q] = append([]int(nil), s.ByQueue[q]...)
	}
	for k := range s.ByTask {
		c.ByTask[k] = append([]int(nil), s.ByTask[k]...)
	}
	return c
}

// CopyFrom makes s a deep copy of src, reusing s's existing backing arrays
// whenever their capacities suffice. It is the allocation-free counterpart
// of Clone for workloads that repeatedly re-derive a working copy from the
// same (or same-shaped) source — independent chains, experiment
// replications, streaming windows.
func (s *EventSet) CopyFrom(src *EventSet) {
	s.Events = append(s.Events[:0], src.Events...)
	s.Arr = append(s.Arr[:0], src.Arr...)
	s.Dep = append(s.Dep[:0], src.Dep...)
	s.NumQueues = src.NumQueues
	s.NumTasks = src.NumTasks
	if cap(s.ByQueue) >= len(src.ByQueue) {
		s.ByQueue = s.ByQueue[:len(src.ByQueue)]
	} else {
		s.ByQueue = make([][]int, len(src.ByQueue))
	}
	for q := range src.ByQueue {
		s.ByQueue[q] = append(s.ByQueue[q][:0], src.ByQueue[q]...)
	}
	if cap(s.ByTask) >= len(src.ByTask) {
		s.ByTask = s.ByTask[:len(src.ByTask)]
	} else {
		s.ByTask = make([][]int, len(src.ByTask))
	}
	for k := range src.ByTask {
		s.ByTask[k] = append(s.ByTask[k][:0], src.ByTask[k]...)
	}
}

// ClonePool recycles event-set working copies across uses. Get returns a
// deep copy of src (drawing the backing storage from the pool when
// available); Put recycles a copy once its user is done with it. The pool
// is safe for concurrent use and holds its free list through a sync.Pool,
// so idle entries are reclaimed by the garbage collector rather than
// pinned forever.
type ClonePool struct {
	p sync.Pool
}

// Get returns a working copy of src.
func (cp *ClonePool) Get(src *EventSet) *EventSet {
	if v := cp.p.Get(); v != nil {
		es := v.(*EventSet)
		es.CopyFrom(src)
		return es
	}
	return src.Clone()
}

// Put recycles a working copy obtained from Get. The caller must not use
// es afterwards.
func (cp *ClonePool) Put(es *EventSet) {
	if es == nil {
		return
	}
	cp.p.Put(es)
}

// MeanServiceByQueue returns the empirical mean service time per queue; the
// value for queues with no events is NaN.
func (s *EventSet) MeanServiceByQueue() []float64 {
	return s.meanByQueue(s.ServiceTime)
}

// MeanWaitByQueue returns the empirical mean waiting time per queue.
func (s *EventSet) MeanWaitByQueue() []float64 {
	return s.meanByQueue(s.WaitTime)
}

func (s *EventSet) meanByQueue(f func(int) float64) []float64 {
	out := make([]float64, s.NumQueues)
	for q, ids := range s.ByQueue {
		if len(ids) == 0 {
			out[q] = math.NaN()
			continue
		}
		var sum float64
		for _, id := range ids {
			sum += f(id)
		}
		out[q] = sum / float64(len(ids))
	}
	return out
}

// CountByQueue returns the number of events at each queue.
func (s *EventSet) CountByQueue() []int {
	out := make([]int, s.NumQueues)
	for q, ids := range s.ByQueue {
		out[q] = len(ids)
	}
	return out
}

// NumObservedArrivals counts events with observed arrivals, excluding
// initial events (whose time-zero arrival is a convention, not data).
func (s *EventSet) NumObservedArrivals() int {
	n := 0
	for i := range s.Events {
		if s.Events[i].ObsArrival && !s.Events[i].Initial() {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Observation masking

// Sampler is the subset of xrand.RNG used for observation sampling.
type Sampler interface {
	SampleWithoutReplacement(n, k int) []int
	Float64() float64
}

// ClearObservations marks every event unobserved except the structural
// time-zero arrivals of initial events.
func (s *EventSet) ClearObservations() {
	for i := range s.Events {
		e := &s.Events[i]
		e.ObsArrival = e.Initial()
		e.ObsDepart = false
	}
}

// ObserveTasks marks a random fraction of tasks as fully observed: every
// arrival of the task (equivalently every non-final departure) plus the
// final departure. This is the paper's §5.1 observation model ("observe all
// arrivals for a random sample of tasks"). It returns the observed task ids.
func (s *EventSet) ObserveTasks(r Sampler, fraction float64) []int {
	if fraction < 0 || fraction > 1 {
		panic(fmt.Sprintf("trace: observation fraction %v outside [0,1]", fraction))
	}
	s.ClearObservations()
	k := int(math.Round(fraction * float64(s.NumTasks)))
	ids := r.SampleWithoutReplacement(s.NumTasks, k)
	for _, task := range ids {
		s.observeTask(task)
	}
	sort.Ints(ids)
	return ids
}

// ObserveTaskIDs marks exactly the given tasks as fully observed.
func (s *EventSet) ObserveTaskIDs(tasks []int) {
	s.ClearObservations()
	for _, task := range tasks {
		s.observeTask(task)
	}
}

// ObserveTasksArrivalsOnly is the strict reading of the paper's §5
// observation model: a sampled fraction of tasks have all their *arrival*
// times observed, but no departure that is not itself an arrival — i.e.
// each observed task's final departure stays latent (the paper's event
// counts, 4 arrivals per request, include no terminal departure). It
// returns the observed task ids.
func (s *EventSet) ObserveTasksArrivalsOnly(r Sampler, fraction float64) []int {
	ids := s.ObserveTasks(r, fraction)
	for _, task := range ids {
		evs := s.ByTask[task]
		s.Events[evs[len(evs)-1]].ObsDepart = false
	}
	return ids
}

func (s *EventSet) observeTask(task int) {
	for _, id := range s.ByTask[task] {
		e := &s.Events[id]
		e.ObsArrival = true
		e.ObsDepart = true
	}
}

// ObserveEvents marks each non-initial event's arrival as observed
// independently with the given probability (event-level observation, the
// ablation variant of the task-level model).
func (s *EventSet) ObserveEvents(r Sampler, prob float64) int {
	if prob < 0 || prob > 1 {
		panic(fmt.Sprintf("trace: observation probability %v outside [0,1]", prob))
	}
	s.ClearObservations()
	n := 0
	for i := range s.Events {
		e := &s.Events[i]
		if e.Initial() {
			continue
		}
		if r.Float64() < prob {
			e.ObsArrival = true
			n++
		}
		if e.Final() && r.Float64() < prob {
			e.ObsDepart = true
		}
	}
	return n
}

// SubsetTasks returns a new event set containing only tasks [from, to)
// (renumbered from zero), preserving times and observation flags. Queue
// orders are recomputed among the retained events; relative order is
// preserved. This is the windowing primitive of the streaming estimator.
func (s *EventSet) SubsetTasks(from, to int) (*EventSet, error) {
	if from < 0 || to > s.NumTasks || from >= to {
		return nil, fmt.Errorf("trace: invalid task range [%d,%d) of %d", from, to, s.NumTasks)
	}
	b := NewBuilder(s.NumQueues)
	type flag struct{ arr, dep bool }
	var flags []flag
	for k := from; k < to; k++ {
		ids := s.ByTask[k]
		nk := b.StartTask(s.Dep[ids[0]])
		flags = append(flags, flag{s.Events[ids[0]].ObsArrival, s.Events[ids[0]].ObsDepart})
		for _, id := range ids[1:] {
			e := &s.Events[id]
			if _, err := b.AddEvent(nk, e.State, e.Queue, s.Arr[id], s.Dep[id]); err != nil {
				return nil, err
			}
			flags = append(flags, flag{e.ObsArrival, e.ObsDepart})
		}
	}
	sub, err := b.Build()
	if err != nil {
		return nil, err
	}
	for i := range sub.Events {
		sub.Events[i].ObsArrival = flags[i].arr || sub.Events[i].Initial()
		sub.Events[i].ObsDepart = flags[i].dep
	}
	return sub, nil
}

// TimeShift translates every event time by delta. Initial events keep
// their structural time-zero arrivals (their departures — the task entry
// times — shift). The model is invariant under time translation except for
// the first interarrival gap, so shifting a window of a longer trace back
// toward zero is how the streaming estimator avoids attributing the
// window's offset to the arrival process. It fails if any shifted entry
// would become negative.
func (s *EventSet) TimeShift(delta float64) error {
	for i := range s.Events {
		if !s.Events[i].Initial() {
			if s.Arr[i]+delta < 0 {
				return fmt.Errorf("trace: TimeShift(%v) makes event %d arrival negative", delta, i)
			}
			continue
		}
		if s.Dep[i]+delta < 0 {
			return fmt.Errorf("trace: TimeShift(%v) makes task %d entry negative", delta, s.Events[i].Task)
		}
	}
	for i := range s.Events {
		if !s.Events[i].Initial() {
			s.Arr[i] += delta
		}
		s.Dep[i] += delta
	}
	return nil
}

// ---------------------------------------------------------------------------
// Builder

// Builder assembles an EventSet from per-task paths with times, then links
// ρ/π pointers and per-queue orderings.
type Builder struct {
	numQueues int
	events    []Event
	arr, dep  []float64
	taskOpen  map[int]int // task -> last event index
	tasks     int
}

// NewBuilder returns a builder for a network with the given queue count
// (including q0).
func NewBuilder(numQueues int) *Builder {
	if numQueues < 1 {
		panic("trace: builder needs at least one queue")
	}
	return &Builder{numQueues: numQueues, taskOpen: make(map[int]int)}
}

// StartTask begins a new task whose initial q0 event departs (i.e. the task
// enters the system) at the given entry time. It returns the task id.
func (b *Builder) StartTask(entry float64) int {
	task := b.tasks
	b.tasks++
	b.events = append(b.events, Event{
		Task: task, State: None, Queue: 0,
		PrevQ: None, NextQ: None, PrevT: None, NextT: None,
	})
	b.arr = append(b.arr, 0)
	b.dep = append(b.dep, entry)
	b.taskOpen[task] = len(b.events) - 1
	return task
}

// AddEvent appends the next event of a task. The arrival must equal the
// previous event's departure; pass the departure time computed by the
// caller (the simulator) or a placeholder to be overwritten before Build.
func (b *Builder) AddEvent(task, state, queue int, arrival, depart float64) (int, error) {
	prev, ok := b.taskOpen[task]
	if !ok {
		return 0, fmt.Errorf("trace: AddEvent for unknown task %d", task)
	}
	if queue <= 0 || queue >= b.numQueues {
		return 0, fmt.Errorf("trace: AddEvent queue %d out of range (q0 is reserved)", queue)
	}
	if math.Abs(b.dep[prev]-arrival) > 1e-9 {
		return 0, fmt.Errorf("trace: task %d arrival %v != previous departure %v", task, arrival, b.dep[prev])
	}
	id := len(b.events)
	b.events = append(b.events, Event{
		Task: task, State: state, Queue: queue,
		PrevQ: None, NextQ: None, PrevT: prev, NextT: None,
	})
	b.arr = append(b.arr, arrival)
	b.dep = append(b.dep, depart)
	b.events[prev].NextT = id
	b.taskOpen[task] = id
	return id, nil
}

// Build links per-queue orderings (sorting arrivals, breaking ties by FIFO
// upstream) and returns the validated EventSet.
func (b *Builder) Build() (*EventSet, error) {
	s := &EventSet{
		Events:    b.events,
		Arr:       b.arr,
		Dep:       b.dep,
		NumQueues: b.numQueues,
		NumTasks:  b.tasks,
		ByQueue:   make([][]int, b.numQueues),
		ByTask:    make([][]int, b.tasks),
	}
	for i := range s.Events {
		e := &s.Events[i]
		s.ByQueue[e.Queue] = append(s.ByQueue[e.Queue], i)
		s.ByTask[e.Task] = append(s.ByTask[e.Task], i)
	}
	// Equal arrivals order by FIFO upstream: two events that arrive
	// together from one queue take the order in which they left it, their
	// task predecessors' order there, recursively. Equal arrivals from
	// different queues order by queue index and q0 events by id, so the
	// order is total (core.SlidingWindow declares the same chains).
	less := func(a, b int) bool {
		for s.Arr[a] == s.Arr[b] {
			pa, pb := s.Events[a].PrevT, s.Events[b].PrevT
			if pa == None || pb == None {
				return a < b
			}
			if qa, qb := s.Events[pa].Queue, s.Events[pb].Queue; qa != qb {
				return qa < qb
			}
			a, b = pa, pb
		}
		return s.Arr[a] < s.Arr[b]
	}
	for q := range s.ByQueue {
		ids := s.ByQueue[q]
		sort.SliceStable(ids, func(x, y int) bool { return less(ids[x], ids[y]) })
		for j, id := range ids {
			if j > 0 {
				s.Events[id].PrevQ = ids[j-1]
				s.Events[ids[j-1]].NextQ = id
			}
		}
	}
	// ByTask entries are already in insertion (path) order because events
	// are appended per task in sequence.
	s.ClearObservations()
	if err := s.Validate(1e-9); err != nil {
		return nil, err
	}
	return s, nil
}
