package core

import (
	"math"
	"testing"

	"repro/internal/qnet"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func TestSubsetTasksRoundTrip(t *testing.T) {
	net := must(qnet.PaperSynthetic(8, 5, [3]int{1, 2, 1}))
	working, _, _ := simulateObserved(t, net, 120, 0.3, 3001)
	sub, err := working.SubsetTasks(40, 80)
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumTasks != 40 {
		t.Fatalf("subset tasks %d, want 40", sub.NumTasks)
	}
	if err := sub.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
	// Times and flags preserved for the first retained task.
	origIDs := working.ByTask[40]
	subIDs := sub.ByTask[0]
	if len(origIDs) != len(subIDs) {
		t.Fatalf("event count mismatch: %d vs %d", len(origIDs), len(subIDs))
	}
	for j := range origIDs {
		oe, se := working.Events[origIDs[j]], sub.Events[subIDs[j]]
		if working.Arr[origIDs[j]] != sub.Arr[subIDs[j]] ||
			working.Dep[origIDs[j]] != sub.Dep[subIDs[j]] || oe.Queue != se.Queue {
			t.Fatalf("event %d mismatch: %+v vs %+v", j, oe, se)
		}
		if oe.ObsArrival != se.ObsArrival {
			t.Fatalf("observation flag lost at %d", j)
		}
	}
	if _, err := working.SubsetTasks(5, 5); err == nil {
		t.Error("empty range should fail")
	}
	if _, err := working.SubsetTasks(-1, 5); err == nil {
		t.Error("negative from should fail")
	}
	if _, err := working.SubsetTasks(0, 9999); err == nil {
		t.Error("out-of-range to should fail")
	}
}

func TestStreamingTracksRateShift(t *testing.T) {
	// λ doubles halfway through; per-block λ̂ must follow.
	net := must(qnet.SingleMM1(2, 12))
	r := xrand.New(3002)
	entries := workload.NewPoisson(2).Entries(r, 600)
	shift := entries[599] // continue with the faster process
	fast := workload.NewPoisson(4).Entries(r, 600)
	for _, e := range fast {
		entries = append(entries, shift+e)
	}
	truth, err := sim.Run(net, r, sim.Options{Tasks: 1200, Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	truth.ObserveTasks(r, 0.4)
	blocks, err := StreamingEstimate(truth.Clone(), r, StreamingOptions{
		Blocks: 4,
		EM:     EMOptions{Iterations: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 4 {
		t.Fatalf("got %d blocks", len(blocks))
	}
	// Blocks 0-1 cover the slow phase, 2-3 the fast phase.
	slow := (blocks[0].Params.Rates[0] + blocks[1].Params.Rates[0]) / 2
	fastEst := (blocks[2].Params.Rates[0] + blocks[3].Params.Rates[0]) / 2
	if math.Abs(slow-2) > 0.5 {
		t.Errorf("slow-phase λ̂ = %v, want ≈2", slow)
	}
	if math.Abs(fastEst-4) > 1.0 {
		t.Errorf("fast-phase λ̂ = %v, want ≈4", fastEst)
	}
	if fastEst < slow*1.5 {
		t.Errorf("streaming did not detect the rate shift: %v -> %v", slow, fastEst)
	}
	// Service rate should be stable across blocks.
	for i, b := range blocks {
		if math.Abs(b.Params.MeanServiceTimes()[1]-1.0/12) > 0.04 {
			t.Errorf("block %d mean service %v, want ≈%v", i, b.Params.MeanServiceTimes()[1], 1.0/12)
		}
	}
}

// TestStreamingWarmStartsFromPreviousBlock pins the warm-start contract:
// block b>0 must be estimated with InitialParams equal to block b-1's
// estimate (not EMOptions.InitialParams). The test replays
// StreamingEstimate's exact RNG-split sequence by hand, threading the warm
// start explicitly, and demands bit-identical parameters; a cold-started
// control must diverge.
func TestStreamingWarmStartsFromPreviousBlock(t *testing.T) {
	net := must(qnet.SingleMM1(3, 8))
	r := xrand.New(7001)
	truth, err := sim.Run(net, r, sim.Options{Tasks: 200})
	if err != nil {
		t.Fatal(err)
	}
	truth.ObserveTasks(r, 0.5)
	em := EMOptions{Iterations: 80}

	blocks, err := StreamingEstimate(truth.Clone(), xrand.New(9), StreamingOptions{
		Blocks: 2, EM: em, PostSweeps: 10,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Manual replication with the warm start threaded by hand.
	rng := xrand.New(9)
	sub0, err := truth.SubsetTasks(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	r0 := rng.Split()
	if err := ShiftTowardZero(sub0); err != nil {
		t.Fatal(err)
	}
	em0, err := StEM(sub0, r0, em)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Posterior(sub0, em0.Params, r0, PosteriorOptions{Sweeps: 10}); err != nil {
		t.Fatal(err)
	}
	sub1, err := truth.SubsetTasks(100, 200)
	if err != nil {
		t.Fatal(err)
	}
	r1 := rng.Split()
	if err := ShiftTowardZero(sub1); err != nil {
		t.Fatal(err)
	}
	warmOpts := em
	w := em0.Params.Clone()
	warmOpts.InitialParams = &w
	em1, err := StEM(sub1.Clone(), r1, warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	for q, rate := range em1.Params.Rates {
		if blocks[1].Params.Rates[q] != rate {
			t.Errorf("block 1 rate[%d] = %v, manual warm-started run got %v", q, blocks[1].Params.Rates[q], rate)
		}
	}

	// Cold control: the same block-1 data and RNG stream without the warm
	// start must not reproduce the streaming estimate.
	rngCold := xrand.New(9)
	rngCold.Split() // consume block 0's split
	r1cold := rngCold.Split()
	em1cold, err := StEM(sub1.Clone(), r1cold, em)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for q, rate := range em1cold.Params.Rates {
		if blocks[1].Params.Rates[q] != rate {
			same = false
		}
	}
	if same {
		t.Error("cold-started block 1 reproduced the streaming estimate; warm start is not taking effect")
	}
}

// TestShiftTowardZeroKeepsEntriesNonNegative covers the streaming shift's
// safety property: landing the first entry on the mean interarrival gap can
// never drive any entry time negative, so TimeShift must always succeed on
// a block cut from a longer trace.
func TestShiftTowardZeroKeepsEntriesNonNegative(t *testing.T) {
	net := must(qnet.SingleMM1(5, 9))
	r := xrand.New(7003)
	truth, err := sim.Run(net, r, sim.Options{Tasks: 300})
	if err != nil {
		t.Fatal(err)
	}
	truth.ObserveTasks(r, 0.4)
	// A late block: entries start far from zero.
	sub, err := truth.SubsetTasks(250, 300)
	if err != nil {
		t.Fatal(err)
	}
	before := sub.TaskEntry(0)
	if before <= 1 {
		t.Fatalf("test needs a late block, first entry %v", before)
	}
	if err := ShiftTowardZero(sub); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < sub.NumTasks; k++ {
		if e := sub.TaskEntry(k); e < 0 {
			t.Fatalf("task %d entry %v negative after shift", k, e)
		}
	}
	if err := sub.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
	// Shifting further than the first entry must be rejected by TimeShift,
	// not silently produce a negative entry.
	first := sub.TaskEntry(0)
	if err := sub.TimeShift(-(first + 1)); err == nil {
		t.Error("TimeShift past zero should fail")
	}
	for k := 0; k < sub.NumTasks; k++ {
		if e := sub.TaskEntry(k); e < 0 {
			t.Fatalf("failed TimeShift mutated entries: task %d at %v", k, e)
		}
	}
}

// TestPosteriorWindowsEventRounding replicates PosteriorWindows' sweep loop
// with an identical sampler (same seed, same cloned state) and float64
// accumulators, and demands that the returned integer Events equal the
// rounded — not truncated — per-sweep averages.
func TestPosteriorWindowsEventRounding(t *testing.T) {
	net := must(qnet.SingleMM1(3, 6))
	r := xrand.New(7004)
	truth, err := sim.Run(net, r, sim.Options{Tasks: 150})
	if err != nil {
		t.Fatal(err)
	}
	truth.ObserveTasks(r, 0.3)
	working := truth.Clone()
	emRes, err := StEM(working, r, EMOptions{Iterations: 150})
	if err != nil {
		t.Fatal(err)
	}
	const (
		lo, hi = 0.0, 30.0
		n      = 5
	)
	opts := PosteriorOptions{Sweeps: 40, BurnIn: 10}
	ws, err := PosteriorWindows(working.Clone(), emRes.Params, xrand.New(77), opts, lo, hi, n)
	if err != nil {
		t.Fatal(err)
	}

	// Replica with float64 accumulators.
	es := working.Clone()
	g, err := NewGibbs(es, emRes.Params, xrand.New(77))
	if err != nil {
		t.Fatal(err)
	}
	sums := make([][]float64, es.NumQueues)
	counts := make([][]int, es.NumQueues)
	for q := range sums {
		sums[q] = make([]float64, n)
		counts[q] = make([]int, n)
	}
	for sweep := 0; sweep < opts.Sweeps; sweep++ {
		g.Sweep()
		if sweep < opts.BurnIn {
			continue
		}
		stats, err := es.WindowedStats(lo, hi, n)
		if err != nil {
			t.Fatal(err)
		}
		for q := range stats {
			for w := range stats[q] {
				if cell := stats[q][w]; cell.Events > 0 && !math.IsNaN(cell.MeanWait) {
					sums[q][w] += float64(cell.Events)
					counts[q][w]++
				}
			}
		}
	}
	sawFractional := false
	for q := range sums {
		for w := 0; w < n; w++ {
			if counts[q][w] == 0 {
				continue
			}
			avg := sums[q][w] / float64(counts[q][w])
			if avg != math.Trunc(avg) {
				sawFractional = true
			}
			if want := int(math.Round(avg)); ws[q][w].Events != want {
				t.Errorf("queue %d window %d: Events = %d, want round(%v) = %d", q, w, ws[q][w].Events, avg, want)
			}
		}
	}
	if !sawFractional {
		t.Log("warning: no fractional per-sweep averages; rounding path not distinguished from truncation")
	}
}

func TestStreamingValidation(t *testing.T) {
	net := must(qnet.SingleMM1(2, 5))
	working, _, _ := simulateObserved(t, net, 20, 0.5, 3003)
	if _, err := StreamingEstimate(working, xrand.New(1), StreamingOptions{Blocks: 0}); err == nil {
		t.Error("zero blocks should fail")
	}
	if _, err := StreamingEstimate(working, xrand.New(1), StreamingOptions{Blocks: 100}); err == nil {
		t.Error("more blocks than tasks should fail")
	}
}

// TestPosteriorWindowsLocalizesSpike reproduces the paper's motivating
// question end to end: a brief workload spike must show up as elevated
// waiting in exactly the windows it covers, estimated from 10% of tasks.
func TestPosteriorWindowsLocalizesSpike(t *testing.T) {
	net := must(qnet.SingleMM1(3, 6))
	r := xrand.New(3004)
	gen := workload.Spike(3, 4, 40, 20) // burst in [40, 60)
	entries := gen.Entries(r, 800)
	truth, err := sim.Run(net, r, sim.Options{Tasks: 800, Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	truth.ObserveTasks(r, 0.10)
	working := truth.Clone()
	emRes, err := StEM(working, r, EMOptions{Iterations: 400})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := PosteriorWindows(working, emRes.Params, r, PosteriorOptions{Sweeps: 60, BurnIn: 20}, 0, 120, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Spike covers windows 2 ([40,60)): its wait must dominate windows 0-1.
	spikeWait := ws[1][2].MeanWait
	calm := (ws[1][0].MeanWait + ws[1][1].MeanWait) / 2
	if math.IsNaN(spikeWait) || math.IsNaN(calm) {
		t.Fatalf("window stats NaN: %+v", ws[1])
	}
	if spikeWait < 2*calm {
		t.Fatalf("spike window wait %v not elevated over calm %v", spikeWait, calm)
	}
}

func TestPosteriorWindowsValidation(t *testing.T) {
	net := must(qnet.SingleMM1(2, 5))
	working, _, _ := simulateObserved(t, net, 30, 0.5, 3005)
	params, err := NewParams([]float64{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := (OrderInitializer{}).Initialize(working, params); err != nil {
		t.Fatal(err)
	}
	if _, err := PosteriorWindows(working, params, xrand.New(1), PosteriorOptions{Sweeps: 5, BurnIn: 9}, 0, 10, 4); err == nil {
		t.Error("bad burn-in should fail")
	}
	if _, err := PosteriorWindows(working, params, xrand.New(1), PosteriorOptions{}, 10, 10, 4); err == nil {
		t.Error("degenerate window range should fail")
	}
}
