package core

import (
	"errors"
	"math"
	"sort"
	"testing"

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

	// Carried sums must match the flat recomputation.
	svc, wait := es.SumServiceWaitByQueue()
	for q := 0; q < nq; q++ {
		if d := math.Abs(w.stats.svc[q] - svc[q]); d > 1e-9*math.Max(1, svc[q]) {
			t.Fatalf("queue %d Σservice %v vs builder %v", q, w.stats.svc[q], svc[q])
		}
		if d := math.Abs(w.stats.wait[q] - wait[q]); d > 1e-9*math.Max(1, wait[q]) {
			t.Fatalf("queue %d Σwait %v vs builder %v", q, w.stats.wait[q], wait[q])
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

// TestSlideStressInvariants interleaves slides and sweeps over a
// partially observed stream and checks the full invariant set as it goes:
// the carried Kahan statistics may never drift from a rescan, repairs may
// never fail on feasible data, and every latent move stays inside FIFO.
func TestSlideStressInvariants(t *testing.T) {
	const nq, total, keep = 4, 400, 60
	gen := newSlideGen(99, nq, 2.0, 2.5, 0.5)
	rng := xrand.New(5)
	rates := []float64{2, 2.5, 5, 7.5}

	w := NewSlidingWindow(nq)
	for i := 0; i < total; i++ {
		if err := w.Append(gen.next()); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		for w.LiveTasks() > keep {
			w.EvictOldest()
		}
		if i%7 == 0 {
			w.Sweep(rates, rng)
			w.Sweep(rates, rng)
		}
		if i%13 == 0 {
			w.MLERatesInto(rates)
		}
		if i%11 == 0 {
			if err := w.CheckInvariants(1e-7); err != nil {
				t.Fatalf("after %d slides: %v", i, err)
			}
		}
	}
	if err := w.CheckInvariants(1e-7); err != nil {
		t.Fatal(err)
	}
	if w.LiveTasks() != keep {
		t.Fatalf("live tasks %d, want %d", w.LiveTasks(), keep)
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
	for q := 0; q < nq; q++ {
		if a.stats.svc[q] != b.stats.svc[q] || a.stats.wait[q] != b.stats.wait[q] {
			t.Fatalf("queue %d stats differ: (%v,%v) vs (%v,%v)",
				q, a.stats.svc[q], a.stats.wait[q], b.stats.svc[q], b.stats.wait[q])
		}
	}
	var ra, rb [nq]float64
	a.MLERatesInto(ra[:])
	b.MLERatesInto(rb[:])
	if ra != rb {
		t.Fatalf("rates differ: %v vs %v", ra, rb)
	}
}

// TestSlideInfeasibleObserved: contradictory observed times must surface
// ErrInfeasibleSlide (the cold-rebuild signal), not a silent bad state.
func TestSlideInfeasibleObserved(t *testing.T) {
	w := NewSlidingWindow(2)
	if err := w.Append(SlideTask{Entry: 0, EntryObs: true, Events: []SlideEvent{
		{Queue: 1, State: trace.None, Arr: 0, Dep: 10, ObsArr: true, ObsDep: true},
	}}); err != nil {
		t.Fatal(err)
	}
	err := w.Append(SlideTask{Entry: 1, EntryObs: true, Events: []SlideEvent{
		{Queue: 1, State: trace.None, Arr: 1, Dep: 5, ObsArr: true, ObsDep: true},
	}})
	if !errors.Is(err, ErrInfeasibleSlide) {
		t.Fatalf("want ErrInfeasibleSlide, got %v", err)
	}
	// The documented recovery: Reset and rebuild cold.
	w.Reset()
	if w.LiveTasks() != 0 || w.LiveEvents() != 0 {
		t.Fatalf("reset left %d tasks / %d events", w.LiveTasks(), w.LiveEvents())
	}
	if err := w.Append(SlideTask{Entry: 2, EntryObs: true, Events: []SlideEvent{
		{Queue: 1, State: trace.None, Arr: 2, Dep: 3, ObsArr: true, ObsDep: true},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := w.CheckInvariants(1e-9); err != nil {
		t.Fatal(err)
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
