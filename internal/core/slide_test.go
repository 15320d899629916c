package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/qnet"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// slideGen deterministically simulates a FIFO tandem network and emits
// sealed SlideTasks with FIFO-consistent raw times: entries are a Poisson
// process with rate lam, each service queue draws Exp(mu) services, and
// every boundary time is observed with probability obsFrac (the q0 entry
// is always observed — the daemon's store seals tasks by entry).
type slideGen struct {
	rng     *xrand.RNG
	lam     float64
	mus     []float64 // per service queue 1..nq-1
	obsFrac float64
	clock   float64
	lastDep []float64
	buf     []SlideEvent
}

func newSlideGen(seed uint64, nq int, lam float64, mu float64, obsFrac float64) *slideGen {
	mus := make([]float64, nq)
	for q := 1; q < nq; q++ {
		mus[q] = mu * float64(q) // distinct rates per queue
	}
	return &slideGen{
		rng: xrand.New(seed), lam: lam, mus: mus, obsFrac: obsFrac,
		lastDep: make([]float64, nq),
	}
}

// next emits the following task. The returned SlideTask's Events slice is
// g.buf, reused on the next call.
func (g *slideGen) next() SlideTask {
	g.clock += g.rng.Exp(g.lam)
	g.buf = g.buf[:0]
	t := g.clock
	for q := 1; q < len(g.mus); q++ {
		arr := t
		start := math.Max(arr, g.lastDep[q])
		dep := start + g.rng.Exp(g.mus[q])
		g.lastDep[q] = dep
		g.buf = append(g.buf, SlideEvent{
			Queue: q, State: trace.None,
			Arr: arr, Dep: dep,
		})
		t = dep
	}
	// Each internal boundary between consecutive events is one shared
	// time, so its ObsDep/ObsArr pair is decided together.
	for k := 1; k < len(g.buf); k++ {
		obs := g.rng.Bernoulli(g.obsFrac)
		g.buf[k-1].ObsDep = obs
		g.buf[k].ObsArr = obs
	}
	if len(g.buf) > 0 {
		g.buf[0].ObsArr = true // equals the observed entry
		g.buf[len(g.buf)-1].ObsDep = g.rng.Bernoulli(g.obsFrac)
	}
	return SlideTask{Entry: g.clock, EntryObs: true, Events: g.buf}
}

// take returns n fresh tasks with owned Events slices.
func (g *slideGen) take(n int) []SlideTask {
	out := make([]SlideTask, n)
	for i := range out {
		t := g.next()
		t.Events = append([]SlideEvent(nil), t.Events...)
		out[i] = t
	}
	return out
}

func appendAll(t *testing.T, w *SlidingWindow, tasks []SlideTask) {
	t.Helper()
	for i, task := range tasks {
		if err := w.Append(task); err != nil {
			t.Fatalf("append task %d: %v", i, err)
		}
	}
}

// chainDump walks every queue chain and returns (queue, arr, dep, obsA,
// obsD) rows in chain order — the index-free view two windows are compared
// by (backing indices differ across compaction histories).
func chainDump(w *SlidingWindow) [][5]float64 {
	var out [][5]float64
	for q := 0; q < w.set.NumQueues; q++ {
		for i := w.qHead[q]; i != trace.None; i = w.set.Events[i].NextQ {
			e := &w.set.Events[i]
			row := [5]float64{float64(q), w.set.Arr[i], w.set.Dep[i], 0, 0}
			if e.ObsArrival {
				row[3] = 1
			}
			if e.ObsDepart {
				row[4] = 1
			}
			out = append(out, row)
		}
	}
	return out
}

// TestSlidingWindowMatchesBuilder pins the incremental construction
// against trace.Builder ground truth: same tasks, same chains, same sums.
func TestSlidingWindowMatchesBuilder(t *testing.T) {
	const nq, n = 4, 120
	gen := newSlideGen(7, nq, 2.0, 3.0, 1.0)
	tasks := gen.take(n)

	w := NewSlidingWindow(nq)
	appendAll(t, w, tasks)
	if err := w.CheckInvariants(1e-9); err != nil {
		t.Fatal(err)
	}

	b := trace.NewBuilder(nq)
	for _, task := range tasks {
		id := b.StartTask(task.Entry)
		arr := task.Entry
		for _, ev := range task.Events {
			if _, err := b.AddEvent(id, ev.State, ev.Queue, arr, ev.Dep); err != nil {
				t.Fatal(err)
			}
			arr = ev.Dep
		}
	}
	es, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	// Chains must agree event by event in order and times.
	for q := 0; q < nq; q++ {
		i := w.qHead[q]
		for _, id := range es.ByQueue[q] {
			if i == trace.None {
				t.Fatalf("queue %d: window chain shorter than builder", q)
			}
			if w.set.Arr[i] != es.Arr[id] || w.set.Dep[i] != es.Dep[id] {
				t.Fatalf("queue %d: chain mismatch (%v,%v) vs (%v,%v)",
					q, w.set.Arr[i], w.set.Dep[i], es.Arr[id], es.Dep[id])
			}
			if w.set.Events[i].Task != es.Events[id].Task {
				t.Fatalf("queue %d: task order %d vs %d", q, w.set.Events[i].Task, es.Events[id].Task)
			}
			i = w.set.Events[i].NextQ
		}
		if i != trace.None {
			t.Fatalf("queue %d: window chain longer than builder", q)
		}
	}

	// The window's sums must match the flat recomputation.
	svc, wait := es.SumServiceWaitByQueue()
	gotSvc, gotWait := w.queueSums()
	for q := 0; q < nq; q++ {
		if d := math.Abs(gotSvc[q] - svc[q]); d > 1e-9*math.Max(1, svc[q]) {
			t.Fatalf("queue %d Σservice %v vs builder %v", q, gotSvc[q], svc[q])
		}
		if d := math.Abs(gotWait[q] - wait[q]); d > 1e-9*math.Max(1, wait[q]) {
			t.Fatalf("queue %d Σwait %v vs builder %v", q, gotWait[q], wait[q])
		}
	}
}

// TestSlideMatchesFreshBuild: after sliding (no sweeps — raw times are
// FIFO-consistent so no latent moves), the live state must equal a window
// freshly built over the surviving tasks.
func TestSlideMatchesFreshBuild(t *testing.T) {
	const nq, total, keep = 3, 150, 30
	gen := newSlideGen(21, nq, 2.0, 3.0, 0.6)
	tasks := gen.take(total)

	w := NewSlidingWindow(nq)
	for i, task := range tasks {
		if err := w.Append(task); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		for w.LiveTasks() > keep {
			w.EvictOldest()
		}
	}
	if err := w.CheckInvariants(1e-9); err != nil {
		t.Fatal(err)
	}
	// The slide count forces several compactions; prove one happened.
	if got := len(w.set.Events); got > 2*(keep+1)*nq {
		t.Fatalf("backing never compacted: %d events stored for %d live", got, w.LiveEvents())
	}

	fresh := NewSlidingWindow(nq)
	appendAll(t, fresh, tasks[total-keep:])

	got, want := chainDump(w), chainDump(fresh)
	if len(got) != len(want) {
		t.Fatalf("chain lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("chain row %d: %v vs %v", i, got[i], want[i])
		}
	}
	var gs, gw, fs, fw [nq]float64
	w.MLERatesInto(gs[:])
	fresh.MLERatesInto(fs[:])
	if gs != fs {
		t.Fatalf("MLE rates differ: %v vs %v", gs, fs)
	}
	w.QueueMeansInto(gs[:], gw[:])
	fresh.QueueMeansInto(fs[:], fw[:])
	for q := 0; q < nq; q++ {
		if d := math.Abs(gs[q] - fs[q]); d > 1e-9 {
			t.Fatalf("queue %d mean service %v vs fresh %v", q, gs[q], fs[q])
		}
		if d := math.Abs(gw[q] - fw[q]); d > 1e-9 && !(math.IsNaN(gw[q]) && math.IsNaN(fw[q])) {
			t.Fatalf("queue %d mean wait %v vs fresh %v", q, gw[q], fw[q])
		}
	}
}

// TestSlideStressInvariants interleaves slides and sweeps over partially
// observed streams, 10⁴ slides in all: at 10, 30 and 50% observed, with
// 1- and 10-task slides and a few sweeps between them, and every few
// slides the full invariant set must hold: chains in their declared
// order, every latent move inside FIFO. The exact-clock cells cut every
// task from one FIFO tandem simulation, so no append may fail. The
// coarse-clock cells round every time of the paper's three-tier network
// {1,2,4} (λ = 4, µ = 5) to 1 ms and append in seal order, the order of
// the rounded final departures, as the daemon's store seals them: ties
// there must order by FIFO upstream (chainGreater), and every rejected
// task must tie another at the entry or arrive together with one from a
// different queue, the ties chainGreater leaves to insertion and queue
// order.
func TestSlideStressInvariants(t *testing.T) {
	const keep = 100
	total := 0
	for _, tc := range []struct {
		frac                  float64
		slide, sweeps, slides int
		clock                 float64 // rounding of every time; 0 keeps them exact
	}{
		{0.1, 1, 5, 1700, 0}, {0.3, 1, 5, 1700, 0}, {0.5, 1, 5, 1700, 0},
		{0.1, 10, 5, 1700, 0}, {0.3, 10, 5, 1700, 0}, {0.5, 10, 5, 1700, 0},
		{0.1, 10, 5, 1700, 0.001}, {0.3, 10, 5, 1700, 0.001},
	} {
		total += tc.slides
		name := fmt.Sprintf("obs%.0f%%/slide%d", 100*tc.frac, tc.slide)
		if tc.clock > 0 {
			name += fmt.Sprintf("/clock%gms", 1000*tc.clock)
		}
		t.Run(name, func(t *testing.T) {
			seed := uint64(100*tc.frac) + uint64(tc.slide)
			var next func() SlideTask
			var rates []float64
			if tc.clock == 0 {
				gen := newSlideGen(seed, 4, 2.0, 2.5, tc.frac)
				next, rates = gen.next, []float64{2, 2.5, 5, 7.5}
			} else {
				net := must(qnet.PaperSynthetic(4, 5, [3]int{1, 2, 4}))
				working, _, _ := simulateObserved(t, net, keep+tc.slides*tc.slide, tc.frac, seed)
				tasks := coarseClockTasks(slideTasksOf(working), tc.clock)
				next = func() SlideTask { task := tasks[0]; tasks = tasks[1:]; return task }
				rates = net.ServiceRates()
			}
			rng := xrand.New(5)
			w := NewSlidingWindow(len(rates))
			rejected := 0
			add := func(what string, i int) {
				task := next()
				err := w.Append(task)
				if tc.clock > 0 && errors.Is(err, ErrInfeasibleSlide) {
					rejected++
					t.Logf("%s %d rejected: %v", what, i, err)
					if !tiesUnordered(w, task) {
						t.Errorf("%s %d rejected with no tie at the entry or across queues", what, i)
					}
					return
				}
				if err != nil {
					t.Fatalf("%s %d: %v", what, i, err)
				}
			}
			for i := 0; i < keep; i++ {
				add("fill", i)
			}
			for s := 0; s < tc.slides; s++ {
				for k := 0; k < tc.slide; k++ {
					add("slide", s)
				}
				for w.LiveTasks() > keep {
					w.EvictOldest()
				}
				for k := 0; k < tc.sweeps; k++ {
					w.Sweep(rates, rng)
				}
				if s%13 == 0 {
					w.MLERatesInto(rates)
				}
				if s%50 == 0 {
					if err := w.CheckInvariants(1e-7); err != nil {
						t.Fatalf("after %d slides: %v", s, err)
					}
				}
			}
			if err := w.CheckInvariants(1e-7); err != nil {
				t.Fatal(err)
			}
			if tc.clock > 0 {
				t.Logf("%d of %d tasks rejected", rejected, keep+tc.slides*tc.slide)
			}
		})
	}
	if total < 10000 {
		t.Fatalf("%d slides in all, want at least 10⁴", total)
	}
}

// tiesUnordered reports whether task, about to be appended to w, ties a
// live task at the entry or arrives at a queue together with a live event
// from a different queue: the ties chainGreater cannot order by FIFO
// upstream.
func tiesUnordered(w *SlidingWindow, task SlideTask) bool {
	es := &w.set
	for i := w.qHead[0]; i != trace.None; i = es.Events[i].NextQ {
		if w.key[i] == task.Entry {
			return true
		}
	}
	for k, ev := range task.Events {
		from := 0
		if k > 0 {
			from = task.Events[k-1].Queue
		}
		for i := w.qHead[ev.Queue]; i != trace.None; i = es.Events[i].NextQ {
			if w.key[i] == ev.Arr && es.Events[es.Events[i].PrevT].Queue != from {
				return true
			}
		}
	}
	return false
}

// coarseClockTasks rounds every time of tasks to a multiple of clock and
// returns them in seal order, by rounded final departure (ties in entry
// order).
func coarseClockTasks(tasks []SlideTask, clock float64) []SlideTask {
	round := func(x float64) float64 { return math.Round(x/clock) * clock }
	out := make([]SlideTask, len(tasks))
	for i, task := range tasks {
		task.Entry = round(task.Entry)
		task.Events = slices.Clone(task.Events)
		for k := range task.Events {
			ev := &task.Events[k]
			ev.Arr, ev.Dep = round(ev.Arr), round(ev.Dep)
		}
		out[i] = task
	}
	final := func(task SlideTask) float64 { return task.Events[len(task.Events)-1].Dep }
	sort.SliceStable(out, func(i, j int) bool { return final(out[i]) < final(out[j]) })
	return out
}

// TestQueueSumsMatchRescan is the oracle of the per-queue sums the M-step
// and the posterior means read: after every step of a randomized sequence
// of appends, evictions and sweeps, at 10% and 30% observed, the window's
// Σservice/Σwait equal a rescan of its EventSet copy to 1e-12 relative.
// The offline sampler's means are held to the same rescan after each sweep.
func TestQueueSumsMatchRescan(t *testing.T) {
	check := func(t *testing.T, step int, gotSvc, gotWait []float64, es *trace.EventSet) {
		t.Helper()
		svc, wait := es.SumServiceWaitByQueue()
		for q := range svc {
			if d := math.Abs(gotSvc[q] - svc[q]); d > 1e-12*math.Abs(svc[q]) {
				t.Fatalf("step %d queue %d: Σservice %v, rescan %v", step, q, gotSvc[q], svc[q])
			}
			if d := math.Abs(gotWait[q] - wait[q]); d > 1e-12*math.Abs(wait[q]) {
				t.Fatalf("step %d queue %d: Σwait %v, rescan %v", step, q, gotWait[q], wait[q])
			}
		}
	}
	for _, frac := range []float64{0.1, 0.3} {
		t.Run(fmt.Sprintf("window/obs%.0f%%", 100*frac), func(t *testing.T) {
			const nq, keep = 4, 80
			gen := newSlideGen(uint64(1000*frac)+3, nq, 2.0, 2.5, frac)
			ops := xrand.New(uint64(1000*frac) + 4)
			rng := xrand.New(6)
			rates := []float64{2, 2.5, 5, 7.5}
			w := NewSlidingWindow(nq)
			for step := 0; step < 600; step++ {
				switch u := ops.Float64(); {
				case u < 0.45 || w.LiveTasks() < 2:
					// An infeasible slide is rebuilt cold by the daemon;
					// here the Reset alone is the step under test.
					if err := w.Append(gen.next()); errors.Is(err, ErrInfeasibleSlide) {
						w.Reset()
					} else if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					for w.LiveTasks() > keep {
						w.EvictOldest()
					}
				case u < 0.6:
					w.EvictOldest()
				default:
					w.Sweep(rates, rng)
				}
				svc, wait := w.queueSums()
				check(t, step, svc, wait, w.EventSet())
			}
		})
		t.Run(fmt.Sprintf("gibbs/obs%.0f%%", 100*frac), func(t *testing.T) {
			working, _, params := initializedWorking(t, [3]int{2, 1, 4}, 300, frac, 17)
			g, err := NewGibbs(working, params, xrand.New(23))
			if err != nil {
				t.Fatal(err)
			}
			nq := working.NumQueues
			svc, wait := make([]float64, nq), make([]float64, nq)
			for sweep := 0; sweep < 30; sweep++ {
				g.Sweep()
				g.QueueMeansInto(svc, wait)
				for q := range svc {
					n := float64(len(working.ByQueue[q]))
					svc[q] *= n
					wait[q] *= n
				}
				check(t, sweep, svc, wait, working)
			}
		})
	}
}

// TestIncrementalSlideBitIdentical is the continuation contract: a clone
// of the window state, driven by an identically seeded RNG through the
// same slides and sweeps, stays bit-identical — latent times, statistics,
// rates, and means. This is what makes warm (incremental) inference
// exactly equivalent to a cold sampler over the same retained state.
func TestIncrementalSlideBitIdentical(t *testing.T) {
	const nq, warm, extra, keep = 3, 60, 90, 40
	gen := newSlideGen(31, nq, 2.0, 3.0, 0.5)
	warmup := gen.take(warm)
	stream := gen.take(extra)
	rates := []float64{2, 3, 6}

	a := NewSlidingWindow(nq)
	appendAll(t, a, warmup)
	rngW := xrand.New(17)
	for s := 0; s < 5; s++ {
		a.Sweep(rates, rngW)
	}

	b := a.Clone()
	rngA, rngB := xrand.New(1234), xrand.New(1234)
	for i, task := range stream {
		if err := a.Append(task); err != nil {
			t.Fatalf("a append %d: %v", i, err)
		}
		if err := b.Append(task); err != nil {
			t.Fatalf("b append %d: %v", i, err)
		}
		for a.LiveTasks() > keep {
			a.EvictOldest()
			b.EvictOldest()
		}
		a.Sweep(rates, rngA)
		b.Sweep(rates, rngB)
	}

	da, db := chainDump(a), chainDump(b)
	if len(da) != len(db) {
		t.Fatalf("chain lengths differ: %d vs %d", len(da), len(db))
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("chain row %d differs: %v vs %v", i, da[i], db[i])
		}
	}
	aSvc, aWait := a.queueSums()
	bSvc, bWait := b.queueSums()
	for q := 0; q < nq; q++ {
		if aSvc[q] != bSvc[q] || aWait[q] != bWait[q] {
			t.Fatalf("queue %d stats differ: (%v,%v) vs (%v,%v)",
				q, aSvc[q], aWait[q], bSvc[q], bWait[q])
		}
	}
	var ra, rb [nq]float64
	a.MLERatesInto(ra[:])
	b.MLERatesInto(rb[:])
	if ra != rb {
		t.Fatalf("rates differ: %v vs %v", ra, rb)
	}
}

// TestSlideInfeasibleObserved: a task whose observed times contradict FIFO
// under the declared chain order surfaces ErrInfeasibleSlide, not a silent
// bad state, and the rejected append leaves the window exactly as it was,
// so the next append goes on from there. One case crosses two observed
// departures at one queue; the other appends a task cut from another
// simulation, whose early entry sorts it before tasks it cannot precede.
func TestSlideInfeasibleObserved(t *testing.T) {
	for _, tc := range []struct {
		name        string
		nq          int
		window      []SlideTask
		spoil, next SlideTask
	}{
		{"crossedDepartures", 2,
			[]SlideTask{{Entry: 0, EntryObs: true, Events: []SlideEvent{
				{Queue: 1, State: trace.None, Arr: 0, Dep: 10, ObsArr: true, ObsDep: true},
			}}},
			SlideTask{Entry: 1, EntryObs: true, Events: []SlideEvent{
				{Queue: 1, State: trace.None, Arr: 1, Dep: 5, ObsArr: true, ObsDep: true},
			}},
			SlideTask{Entry: 2, EntryObs: true, Events: []SlideEvent{
				{Queue: 1, State: trace.None, Arr: 2, Dep: 13, ObsArr: true, ObsDep: true},
			}},
		},
		{"otherSimulation", 3,
			newSlideGen(47, 3, 2.0, 3.0, 0.5).take(62),
			newSlideGen(48, 3, 2.0, 3.0, 0.5).take(1)[0],
			newSlideGen(47, 3, 2.0, 3.0, 0.5).take(63)[62],
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewSlidingWindow(tc.nq)
			appendAll(t, w, tc.window)
			before := chainDump(w)
			ref := w.Clone()
			if err := w.Append(tc.spoil); !errors.Is(err, ErrInfeasibleSlide) {
				t.Fatalf("want ErrInfeasibleSlide, got %v", err)
			}
			if err := w.CheckInvariants(1e-9); err != nil {
				t.Fatal(err)
			}
			if got := chainDump(w); !slices.Equal(got, before) || w.LiveTasks() != len(tc.window) {
				t.Fatalf("rejected append changed the window: %d tasks, chains equal %v", w.LiveTasks(), slices.Equal(got, before))
			}
			// The next append lands as it would have without the rejected one.
			appendAll(t, w, []SlideTask{tc.next})
			appendAll(t, ref, []SlideTask{tc.next})
			if err := w.CheckInvariants(1e-9); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(chainDump(w), chainDump(ref)) {
				t.Fatal("append after a rejected one differs from the same append without it")
			}
		})
	}
}

// TestSlideRepairMovesLatents: an append whose raw times conflict with
// the window's *latent* state must succeed by adjusting only latent
// times, leaving every observed time untouched.
func TestSlideRepairMovesLatents(t *testing.T) {
	w := NewSlidingWindow(2)
	// Task 0: final departure latent, raw value 10.
	if err := w.Append(SlideTask{Entry: 0, EntryObs: true, Events: []SlideEvent{
		{Queue: 1, State: trace.None, Arr: 0, Dep: 10, ObsArr: true, ObsDep: false},
	}}); err != nil {
		t.Fatal(err)
	}
	// Task 1: fully observed, departs at 5 — FIFO forces task 0's latent
	// departure back below 5.
	if err := w.Append(SlideTask{Entry: 1, EntryObs: true, Events: []SlideEvent{
		{Queue: 1, State: trace.None, Arr: 1, Dep: 5, ObsArr: true, ObsDep: true},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := w.CheckInvariants(1e-9); err != nil {
		t.Fatal(err)
	}
	dump := chainDump(w)
	// q1 chain order: task 0 (arr 0) then task 1 (arr 1); task 1's service
	// start = max(1, dep0) must be <= 5.
	var dep0 float64
	for _, row := range dump {
		if row[0] == 1 && row[1] == 0 {
			dep0 = row[2]
		}
	}
	if dep0 > 5 {
		t.Fatalf("latent departure not pulled back: %v", dep0)
	}
}

// TestSlideRepairReadsEveryEdge: an append that violates only one kind of
// constraint edge is repaired by moving a latent time. In mergeArrivalOrder
// two paths meet at queue 3, and the only broken edge is arrival order
// there: task A's latent arrival drifted past task B's observed one, which
// no FIFO edge sees, since A and B share no other queue. In
// insertBeforeOlder a late-sealed task sorts before an older one, and the
// only broken edge is FIFO into that older task's latent departure.
func TestSlideRepairReadsEveryEdge(t *testing.T) {
	for _, tc := range []struct {
		name   string
		a, b   SlideTask
		drift  func(w *SlidingWindow) // moves A's latent state before B
		latent func(w *SlidingWindow) float64
		want   float64
	}{
		{"mergeArrivalOrder",
			SlideTask{Entry: 0, EntryObs: true, Events: []SlideEvent{
				{Queue: 1, State: trace.None, Arr: 0, Dep: 5, ObsArr: true},
				{Queue: 3, State: trace.None, Arr: 5, Dep: 20, ObsDep: true},
			}},
			SlideTask{Entry: 6, EntryObs: true, Events: []SlideEvent{
				{Queue: 2, State: trace.None, Arr: 6, Dep: 7, ObsArr: true, ObsDep: true},
				{Queue: 3, State: trace.None, Arr: 7, Dep: 25, ObsArr: true, ObsDep: true},
			}},
			func(w *SlidingWindow) { w.set.SetArrival(2, 8) },
			func(w *SlidingWindow) float64 { return w.set.Arr[2] },
			7,
		},
		{"insertBeforeOlder",
			SlideTask{Entry: 1, EntryObs: true, Events: []SlideEvent{
				{Queue: 1, State: trace.None, Arr: 1, Dep: 10, ObsArr: true},
			}},
			SlideTask{Entry: 0.5, EntryObs: true, Events: []SlideEvent{
				{Queue: 1, State: trace.None, Arr: 0.5, Dep: 12, ObsArr: true, ObsDep: true},
			}},
			func(*SlidingWindow) {},
			func(w *SlidingWindow) float64 { return w.set.Dep[1] },
			12,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewSlidingWindow(4)
			appendAll(t, w, []SlideTask{tc.a})
			tc.drift(w)
			if err := w.CheckInvariants(1e-9); err != nil {
				t.Fatal(err)
			}
			appendAll(t, w, []SlideTask{tc.b})
			if err := w.CheckInvariants(1e-9); err != nil {
				t.Fatal(err)
			}
			if got := tc.latent(w); got != tc.want {
				t.Fatalf("latent time %v after the repair, want %v", got, tc.want)
			}
		})
	}
}

// TestSlideValidation covers the append argument checks.
func TestSlideValidation(t *testing.T) {
	w := NewSlidingWindow(3)
	if err := w.Append(SlideTask{Entry: 1}); err == nil {
		t.Fatal("empty task accepted")
	}
	if err := w.Append(SlideTask{Entry: -1, Events: []SlideEvent{{Queue: 1}}}); err == nil {
		t.Fatal("negative entry accepted")
	}
	if err := w.Append(SlideTask{Entry: 1, Events: []SlideEvent{{Queue: 0}}}); err == nil {
		t.Fatal("q0 event accepted")
	}
	if err := w.Append(SlideTask{Entry: 1, Events: []SlideEvent{{Queue: 3}}}); err == nil {
		t.Fatal("out-of-range queue accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewSlidingWindow(1) did not panic")
			}
		}()
		NewSlidingWindow(1)
	}()
}

// TestSlideWorkScalesWithDelta is the O(new + expired) gate: per-slide
// work (chain-walk steps + repair iterations) must not grow with the
// window, only with the slide's own event count.
func TestSlideWorkScalesWithDelta(t *testing.T) {
	const nq = 3
	rates := []float64{2, 3, 6}
	maxWork := func(keep int) int {
		gen := newSlideGen(77, nq, 2.0, 3.0, 0.5)
		rng := xrand.New(3)
		w := NewSlidingWindow(nq)
		for i := 0; i < keep; i++ {
			if err := w.Append(gen.next()); err != nil {
				t.Fatal(err)
			}
		}
		worst := 0
		for i := 0; i < 200; i++ {
			if err := w.Append(gen.next()); err != nil {
				t.Fatal(err)
			}
			if w.LastOpWork() > worst {
				worst = w.LastOpWork()
			}
			w.EvictOldest()
			if w.LastOpWork() > worst {
				worst = w.LastOpWork()
			}
			if i%5 == 0 { // latent churn between slides, like production
				w.Sweep(rates, rng)
			}
		}
		return worst
	}
	small, large := maxWork(100), maxWork(3200)
	// Identical deltas: a 32x window may not cost more than a small
	// constant factor (walks can differ by a few latent-displaced events).
	if large > 4*small+64 {
		t.Fatalf("slide work grew with window: %d @100 tasks vs %d @3200 tasks", small, large)
	}
	t.Logf("max slide work: %d @100 tasks, %d @3200 tasks", small, large)
}

// TestSlideSteadyStateAllocs pins the zero-allocation slide loop: once
// the backing arrays have been through a compaction cycle, appends,
// evictions and sweeps allocate nothing.
func TestSlideSteadyStateAllocs(t *testing.T) {
	const nq, keep = 3, 128
	gen := newSlideGen(13, nq, 2.0, 3.0, 0.5)
	rng := xrand.New(9)
	rates := []float64{2, 3, 6}
	w := NewSlidingWindow(nq)
	for i := 0; i < keep; i++ {
		if err := w.Append(gen.next()); err != nil {
			t.Fatal(err)
		}
	}
	// Warm through two full compaction cycles so capacities stabilize.
	for i := 0; i < 3*keep; i++ {
		if err := w.Append(gen.next()); err != nil {
			t.Fatal(err)
		}
		w.EvictOldest()
		w.Sweep(rates, rng)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := w.Append(gen.next()); err != nil {
			t.Fatal(err)
		}
		w.EvictOldest()
		w.Sweep(rates, rng)
	})
	if allocs > 0.1 {
		t.Fatalf("steady-state slide allocates: %v allocs/op", allocs)
	}
}

// TestSlideSpeedFlatInWindow is the timed twin of
// TestSlideWorkScalesWithDelta: one steady-state slide (one task in, one
// out) at window 8000 may cost at most 3x what it costs at window 500,
// timed in one process. The band absorbs the larger ring's cache misses;
// a slide that tracks the window length shows as 16x. Each round times a
// block of slides on both windows back to back, and the gate takes the
// median of the per-round ratios.
func TestSlideSpeedFlatInWindow(t *testing.T) {
	if raceEnabled {
		t.Skip("timings are distorted under -race")
	}
	const slides = 1000
	block := func(w *SlidingWindow, gen *slideGen) func() {
		return func() {
			for i := 0; i < slides; i++ {
				if err := w.Append(gen.next()); err != nil {
					t.Fatal(err)
				}
				w.EvictOldest()
			}
		}
	}
	small, large := block(warmSlideWindow(t, 500)), block(warmSlideWindow(t, 8000))
	ratios := make([]float64, 5)
	for r := range ratios {
		d := minTimes(1, small, large)
		ratios[r] = float64(d[1]) / float64(d[0])
	}
	sort.Float64s(ratios)
	med := ratios[len(ratios)/2]
	t.Logf("slide cost w8000 / w500 per round %.2f, median %.2f", ratios, med)
	if med > 3 {
		t.Fatalf("slide cost grows with the window: w8000 is %.2fx w500, want <= 3x", med)
	}
}

// warmSlideWindow fills a window with keep tasks and slides it through
// one compaction cycle, so later slides run in the steady state.
func warmSlideWindow(tb testing.TB, keep int) (*SlidingWindow, *slideGen) {
	tb.Helper()
	const nq = 3
	gen := newSlideGen(42, nq, 2.0, 3.0, 0.5)
	w := NewSlidingWindow(nq)
	for i := 0; i < keep; i++ {
		if err := w.Append(gen.next()); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < keep+64; i++ {
		if err := w.Append(gen.next()); err != nil {
			tb.Fatal(err)
		}
		w.EvictOldest()
	}
	return w, gen
}

// BenchmarkWindowSweep measures one StEM iteration's sampler work on a
// window of 500 and 2000 tasks at 10% observed: a SlidingWindow.Sweep and
// the M-step's read of the per-queue sums (MLERatesInto into a scratch, so
// the rates stay fixed and every iteration does the same work). It
// reports ns per live event next to ns/op.
func BenchmarkWindowSweep(b *testing.B) {
	for _, keep := range []int{500, 2000} {
		b.Run(fmt.Sprintf("w%d", keep), func(b *testing.B) {
			const nq = 3
			rates := []float64{2, 3, 6}
			gen := newSlideGen(5, nq, 2.0, 3.0, 0.1)
			w := NewSlidingWindow(nq)
			for i := 0; i < keep; i++ {
				if err := w.Append(gen.next()); err != nil {
					b.Fatal(err)
				}
			}
			rng := xrand.New(2)
			mle := make([]float64, nq)
			for i := 0; i < 5; i++ {
				w.Sweep(rates, rng)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Sweep(rates, rng)
				w.MLERatesInto(mle)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(w.LiveEvents()), "ns/event")
		})
	}
}

// BenchmarkIncrementalSlide measures one steady-state slide
// (append + evict, fixed delta) at several window sizes.
// TestSlideSpeedFlatInWindow gates the w8000/w500 ratio.
func BenchmarkIncrementalSlide(b *testing.B) {
	for _, keep := range []int{500, 2000, 8000} {
		b.Run(map[int]string{500: "w500", 2000: "w2000", 8000: "w8000"}[keep], func(b *testing.B) {
			w, gen := warmSlideWindow(b, keep)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Append(gen.next()); err != nil {
					b.Fatal(err)
				}
				w.EvictOldest()
			}
		})
	}
}

// TestCoarseClockSameQueueTie is the two-task reproduction of a coarse
// clock: x enters at 0 and y at 1, both leave queue 1 at 5 and so arrive
// together at queue 2, and y seals first. Ordering the tie at queue 2 by
// insertion put y first there while FIFO at queue 1 put x first: a cycle
// of equalities that every append's edge check accepts, but that fails
// the mean-field solve, the order initializer, and the repair of any later
// task whose region reaches it. FIFO upstream orders x first at both.
func TestCoarseClockSameQueueTie(t *testing.T) {
	task := func(entry, dep1, dep2 float64, obsDep2 bool) SlideTask {
		return SlideTask{Entry: entry, EntryObs: true, Events: []SlideEvent{
			{Queue: 1, State: trace.None, Arr: entry, Dep: dep1, ObsArr: true, ObsDep: true},
			{Queue: 2, State: trace.None, Arr: dep1, Dep: dep2, ObsArr: true, ObsDep: obsDep2},
		}}
	}
	w := NewSlidingWindow(3)
	for _, tk := range []SlideTask{task(1, 5, 7, true), task(0, 5, 7, true)} { // y, then x
		if err := w.Append(tk); err != nil {
			t.Fatalf("append entering at %v: %v", tk.Entry, err)
		}
	}
	if err := w.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
	var entries []float64
	for i := w.qHead[2]; i != trace.None; i = w.set.Events[i].NextQ {
		entries = append(entries, w.set.Dep[w.tasks[w.set.Events[i].Task].first])
	}
	if !slices.Equal(entries, []float64{0, 1}) {
		t.Fatalf("queue 2 holds the tasks entering at %v, want [0 1] (FIFO from queue 1)", entries)
	}

	var sum PosteriorSummary
	var params Params
	if _, err := MeanFieldInto(&sum, &params, w.EventSet(), MeanFieldOptions{}); err != nil {
		t.Fatalf("mean-field solve: %v", err)
	}
	if err := (OrderInitializer{}).Initialize(w.EventSet(), must(NewParams([]float64{1, 1, 1}))); err != nil {
		t.Fatalf("order initializer: %v", err)
	}

	// A third task whose latent departure at queue 2 breaks FIFO behind
	// both: the repair's region reaches the tied pair.
	if err := w.Append(task(2, 6, 6.5, false)); err != nil {
		t.Fatalf("third task: %v", err)
	}
	if err := w.CheckInvariants(1e-9); err != nil {
		t.Fatal(err)
	}

	// trace.Builder declares the same chain offline, with y's events
	// added first.
	b := trace.NewBuilder(3)
	x, y := b.StartTask(0), b.StartTask(1)
	for _, k := range []struct {
		task  int
		entry float64
	}{{y, 1}, {x, 0}} {
		must(b.AddEvent(k.task, trace.None, 1, k.entry, 5))
		must(b.AddEvent(k.task, trace.None, 2, 5, 7))
	}
	es := must(b.Build())
	if ids := es.ByQueue[2]; es.Events[ids[0]].Task != x || es.Events[ids[1]].Task != y {
		t.Fatalf("builder's queue 2 holds tasks %d, %d; want x (%d) first", es.Events[ids[0]].Task, es.Events[ids[1]].Task, x)
	}
}

// TestCoarseClockMixedUpstreamTie: three tasks arrive at queue 3 in the
// same tick, a and b from queue 1 (a left it first) and c from queue 2,
// and seal in the order b, c, a. Ordering ties from different queues by
// insertion would make the order intransitive (a before b upstream, b
// before c and c before a by insertion) and splice a behind both, closing
// a cycle through c. Ordering them by queue index keeps the order total:
// a, b, c in the window and in trace.Builder.
func TestCoarseClockMixedUpstreamTie(t *testing.T) {
	type hop struct {
		queue int
		dep   float64
	}
	task := func(entry float64, hops ...hop) SlideTask {
		tk := SlideTask{Entry: entry, EntryObs: true}
		at := entry
		for _, h := range hops {
			tk.Events = append(tk.Events, SlideEvent{Queue: h.queue, State: trace.None, Arr: at, Dep: h.dep, ObsArr: true, ObsDep: true})
			at = h.dep
		}
		return tk
	}
	a := task(0, hop{1, 2}, hop{3, 4})
	b := task(1, hop{1, 2}, hop{3, 4})
	c := task(0.5, hop{2, 2}, hop{3, 4})
	w := NewSlidingWindow(4)
	appendAll(t, w, []SlideTask{b, c, a})
	if err := w.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
	var entries []float64
	for i := w.qHead[3]; i != trace.None; i = w.set.Events[i].NextQ {
		entries = append(entries, w.set.Dep[w.tasks[w.set.Events[i].Task].first])
	}
	if want := []float64{0, 1, 0.5}; !slices.Equal(entries, want) {
		t.Fatalf("queue 3 holds the tasks entering at %v, want %v", entries, want)
	}
	var sum PosteriorSummary
	var params Params
	if _, err := MeanFieldInto(&sum, &params, w.EventSet(), MeanFieldOptions{}); err != nil {
		t.Fatalf("mean-field solve: %v", err)
	}

	bld := trace.NewBuilder(4)
	ids := map[float64]int{}
	for _, tk := range []SlideTask{a, c, b} { // entry order
		ids[tk.Entry] = bld.StartTask(tk.Entry)
	}
	for _, tk := range []SlideTask{b, c, a} { // seal order
		for _, ev := range tk.Events {
			must(bld.AddEvent(ids[tk.Entry], ev.State, ev.Queue, ev.Arr, ev.Dep))
		}
	}
	es := must(bld.Build())
	var got []float64
	for _, id := range es.ByQueue[3] {
		got = append(got, es.Dep[es.ByTask[es.Events[id].Task][0]])
	}
	if !slices.Equal(got, entries) {
		t.Fatalf("builder's queue 3 holds the tasks entering at %v, want the window's %v", got, entries)
	}
}
