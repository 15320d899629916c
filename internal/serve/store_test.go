package serve

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// windowOf assembles the store's live window the way a worker's cold
// rebuild does — delta(0) slid into a fresh core.SlidingWindow — and
// returns the window's EventSet copy and the epoch it covers.
func windowOf(t *testing.T, s *store) (*trace.EventSet, uint64) {
	t.Helper()
	tasks, epoch, window, _ := s.delta(0, nil)
	if len(tasks) != window || window == 0 {
		t.Fatalf("delta(0) returned %d tasks for a %d-task window", len(tasks), window)
	}
	w := core.NewSlidingWindow(s.numQueues)
	for i := range tasks {
		if err := w.Append(tasks[i]); err != nil {
			t.Fatalf("slide task %d: %v", i, err)
		}
	}
	return w.EventSet(), epoch
}

func mustAppend(t *testing.T, s *store, ev IngestEvent) bool {
	t.Helper()
	sealed, err := s.append(ev)
	if err != nil {
		t.Fatalf("append(%+v): %v", ev, err)
	}
	return sealed
}

// postTask appends a two-event task (queue 1 then queue 2) entering at t.
func postTask(t *testing.T, s *store, id string, at float64) {
	t.Helper()
	mustAppend(t, s, IngestEvent{Task: id, Queue: 1, Arrival: at, Depart: at + 0.5, ObsArrival: true})
	if !mustAppend(t, s, IngestEvent{Task: id, Queue: 2, Arrival: at + 0.5, Depart: at + 0.9, Final: true}) {
		t.Fatalf("final event of %s did not seal", id)
	}
}

func TestStoreValidation(t *testing.T) {
	s := newStore(3, 10)
	cases := []struct {
		name string
		ev   IngestEvent
		want string
	}{
		{"missing task", IngestEvent{Queue: 1}, "missing task"},
		{"queue zero", IngestEvent{Task: "a", Queue: 0, Arrival: 1, Depart: 2}, "out of range"},
		{"queue high", IngestEvent{Task: "a", Queue: 3, Arrival: 1, Depart: 2}, "out of range"},
		{"nan time", IngestEvent{Task: "a", Queue: 1, Arrival: math.NaN(), Depart: 2}, "non-finite"},
		{"inf time", IngestEvent{Task: "a", Queue: 1, Arrival: 1, Depart: math.Inf(1)}, "non-finite"},
		{"backward", IngestEvent{Task: "a", Queue: 1, Arrival: 2, Depart: 1}, "before arrival"},
		{"negative entry", IngestEvent{Task: "a", Queue: 1, Arrival: -1, Depart: 2}, "negative entry"},
	}
	for _, tc := range cases {
		if _, err := s.append(tc.ev); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// Path-order violation: second event's arrival must match the first's
	// departure.
	mustAppend(t, s, IngestEvent{Task: "b", Queue: 1, Arrival: 1, Depart: 2})
	if _, err := s.append(IngestEvent{Task: "b", Queue: 2, Arrival: 2.5, Depart: 3}); err == nil ||
		!strings.Contains(err.Error(), "path order") {
		t.Errorf("path-order violation not rejected: %v", err)
	}
	if sealed, _, _ := s.counts(); sealed != 0 {
		t.Errorf("rejections must not seal tasks, sealed=%d", sealed)
	}
}

func TestStoreWindowSlide(t *testing.T) {
	s := newStore(3, 3)
	for i := 0; i < 5; i++ {
		postTask(t, s, fmt.Sprintf("t%d", i), float64(i))
	}
	sealed, open, epoch := s.counts()
	if sealed != 3 || open != 0 {
		t.Fatalf("sealed=%d open=%d, want 3/0", sealed, open)
	}
	if epoch != 5 {
		t.Fatalf("epoch=%d, want 5 (total ever sealed)", epoch)
	}
	slid, evicted := s.dropStats()
	if slid != 2 || evicted != 0 {
		t.Fatalf("slid=%d evicted=%d, want 2/0", slid, evicted)
	}
	es, gotEpoch := windowOf(t, s)
	if gotEpoch != 5 || es.NumTasks != 3 {
		t.Fatalf("window epoch=%d tasks=%d, want 5/3", gotEpoch, es.NumTasks)
	}
	// The window keeps the most recent tasks: entries 2, 3, 4.
	if got := es.TaskEntry(0); got != 2 {
		t.Errorf("oldest retained entry %v, want 2", got)
	}
	if err := es.Validate(1e-9); err != nil {
		t.Errorf("assembled window invalid: %v", err)
	}
}

func TestStoreOpenTaskEviction(t *testing.T) {
	s := newStore(2, 3)
	// Open four tasks without sealing: the stalest must be evicted.
	for i := 0; i < 4; i++ {
		mustAppend(t, s, IngestEvent{Task: fmt.Sprintf("t%d", i), Queue: 1, Arrival: float64(i), Depart: float64(i) + 1})
	}
	if _, open, _ := s.counts(); open != 3 {
		t.Fatalf("open=%d, want 3", open)
	}
	if _, evicted := s.dropStats(); evicted != 1 {
		t.Fatalf("evicted=%d, want 1", evicted)
	}
	// The evicted task t0 restarts from scratch if it reappears: its next
	// event is treated as a (bad) first event with arrival != entry rules.
	if _, err := s.append(IngestEvent{Task: "t0", Queue: 1, Arrival: 1, Depart: 2}); err != nil {
		t.Fatalf("reopened evicted task rejected: %v", err)
	}
}

func TestStoreWindowCarriesObservationMask(t *testing.T) {
	s := newStore(3, 10)
	mustAppend(t, s, IngestEvent{Task: "a", Queue: 1, Arrival: 1, Depart: 2, ObsArrival: true})
	mustAppend(t, s, IngestEvent{Task: "a", Queue: 2, Arrival: 2, Depart: 3, ObsDepart: true, Final: true})
	mustAppend(t, s, IngestEvent{Task: "b", Queue: 1, Arrival: 1.5, Depart: 2.5})
	mustAppend(t, s, IngestEvent{Task: "b", Queue: 2, Arrival: 2.5, Depart: 3.5, Final: true})
	es, _ := windowOf(t, s)
	if es.NumTasks != 2 || es.NumQueues != 3 {
		t.Fatalf("tasks=%d queues=%d", es.NumTasks, es.NumQueues)
	}
	// Task "a" (entry 1) is task 0: its first real event is observed, its
	// final departure is observed.
	aIDs := es.ByTask[0]
	if !es.Events[aIDs[1]].ObsArrival {
		t.Error("task a first event lost ObsArrival")
	}
	if !es.Events[aIDs[2]].ObsDepart {
		t.Error("task a final event lost ObsDepart")
	}
	bIDs := es.ByTask[1]
	if es.Events[bIDs[1]].ObsArrival || es.Events[bIDs[2]].ObsDepart {
		t.Error("task b gained observation flags it never had")
	}
	if es.NumObservedArrivals() != 1 {
		t.Errorf("observed arrivals %d, want 1", es.NumObservedArrivals())
	}
}
