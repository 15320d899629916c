package core

import (
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/xrand"
)

// TestSweepAllocFreeSequential pins the hot-path contract: after the first
// sweep has warmed the scratch buffers, a sequential Sweep performs zero
// heap allocations (including the incremental statistics updates).
func TestSweepAllocFreeSequential(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	working, _, params := initializedWorking(t, [3]int{1, 2, 4}, 300, 0.2, 99)
	g, err := NewGibbs(working, params, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	g.EnableQueueStats()
	g.Sweep() // warm-up
	if allocs := testing.AllocsPerRun(10, g.Sweep); allocs != 0 {
		t.Fatalf("sequential Sweep allocates %v per run, want 0", allocs)
	}
}

// bytesPerSweep measures heap bytes allocated per steady-state Sweep with
// the collector held off, so runtime allocations triggered by a GC cycle
// cannot blur the count of the sampler's own allocations, which must be
// exactly zero.
func bytesPerSweep(g *Gibbs, runs int) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 3; i++ {
		g.Sweep()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		g.Sweep()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestSweepZeroBytesAllVariants pins 0 bytes/op — not merely 0 allocs/op,
// which rounds away sub-allocation drift — for the sweep.
func TestSweepZeroBytesAllVariants(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	t.Run("seq", func(t *testing.T) {
		working, _, params := initializedWorking(t, [3]int{1, 2, 4}, 300, 0.2, 99)
		g, err := NewGibbs(working, params, xrand.New(7))
		if err != nil {
			t.Fatal(err)
		}
		g.EnableQueueStats()
		if bytes := bytesPerSweep(g, 10); bytes != 0 {
			t.Fatalf("Sweep allocates %d bytes per run, want 0", bytes)
		}
	})
}

// TestPosteriorIntoAllocs pins the scratch-reuse contract of the full
// posterior pass: with a GibbsScratch donated through PosteriorOptions and
// a reused summary, a steady-state PosteriorInto call makes exactly 9
// allocations — the move lists and the statistics backings are reused
// rather than rebuilt.
func TestPosteriorIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	base, _, params := initializedWorking(t, [3]int{1, 2, 4}, 300, 0.2, 99)
	var (
		pool trace.ClonePool
		sum  PosteriorSummary
		sc   GibbsScratch
	)
	opts := PosteriorOptions{Sweeps: 10, Scratch: &sc}
	run := func() {
		working := pool.Get(base)
		if err := PosteriorInto(&sum, working, params, xrand.New(3), opts); err != nil {
			t.Fatal(err)
		}
		pool.Put(working)
	}
	run() // grow the scratch and summary to steady state
	if got := testing.AllocsPerRun(5, run); got != 9 {
		t.Fatalf("PosteriorInto allocates %v per run, want 9", got)
	}
}

// TestGibbsSweepSpeedVsSlidingWindow guards the offline sweep's own cost
// in one process, so host speed cancels: on the same 2000-task window,
// Gibbs.Sweep (an index scan over ByQueue) must be no slower than
// SlidingWindow.Sweep (a walk of the linked queue chains). Both call the
// same resamplers, so the gate isolates the scan; a resampler regression
// slows both and shows in the end-to-end benchmark's bigwin workload.
// Host speed drifts over milliseconds on a shared machine, so each round
// times the two sweeps back to back and the gate takes the median of the
// per-round ratios.
func TestGibbsSweepSpeedVsSlidingWindow(t *testing.T) {
	if raceEnabled {
		t.Skip("timings are distorted under -race")
	}
	const nq, tasks = 3, 2000
	rates := []float64{2, 3, 6}
	gen := newSlideGen(5, nq, 2.0, 3.0, 0.1)
	w := NewSlidingWindow(nq)
	for i := 0; i < tasks; i++ {
		if err := w.Append(gen.next()); err != nil {
			t.Fatal(err)
		}
	}
	g, err := NewGibbs(w.EventSet(), must(NewParams(rates)), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(2)
	ratios := make([]float64, 5)
	for r := range ratios {
		d := minTimes(1, g.Sweep, func() { w.Sweep(rates, rng) })
		ratios[r] = float64(d[0]) / float64(d[1])
	}
	sort.Float64s(ratios)
	med := ratios[len(ratios)/2]
	t.Logf("%d tasks: Gibbs.Sweep / SlidingWindow.Sweep per round %.2f, median %.2f", tasks, ratios, med)
	if med > 1 {
		t.Fatalf("Gibbs.Sweep is %.2fx SlidingWindow.Sweep on the same events, want <= 1", med)
	}
}

// minTimes runs each f once per round, interleaved so drift in host speed
// hits every f alike, and returns each f's fastest run.
func minTimes(rounds int, fs ...func()) []time.Duration {
	best := make([]time.Duration, len(fs))
	for r := 0; r < rounds; r++ {
		for i, f := range fs {
			t0 := time.Now()
			f()
			if d := time.Since(t0); r == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	return best
}
