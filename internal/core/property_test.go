package core

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/qnet"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// TestPipelinePropertyRandomNetworks sweeps randomized network shapes,
// loads, and observation fractions through the full pipeline and asserts
// the structural invariants that must hold regardless of configuration:
// feasibility after every stage, finite positive estimates, and untouched
// observations. This is the catch-all for edge cases the targeted tests
// don't enumerate (tiny tiers, heavy overload, near-zero observation).
func TestPipelinePropertyRandomNetworks(t *testing.T) {
	meta := xrand.New(987654)
	for trial := 0; trial < 12; trial++ {
		nTiers := 1 + meta.Intn(3)
		tiers := make([]qnet.TierSpec, nTiers)
		for i := range tiers {
			tiers[i] = qnet.TierSpec{
				Name:     "t" + string(rune('a'+i)),
				Replicas: 1 + meta.Intn(3),
				Service:  dist.NewExponential(meta.Uniform(2, 12)),
			}
		}
		lambda := meta.Uniform(1, 8)
		frac := []float64{0.02, 0.1, 0.3, 0.8}[meta.Intn(4)]
		tasks := 60 + meta.Intn(200)

		net, err := qnet.Tiered(dist.NewExponential(lambda), tiers)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r := xrand.New(uint64(4000 + trial))
		truth, err := sim.Run(net, r, sim.Options{Tasks: tasks})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		truth.ObserveTasks(r, frac)
		working := truth.Clone()
		res, err := StEM(working, r, EMOptions{Iterations: 60})
		if err != nil {
			t.Fatalf("trial %d (λ=%.2f frac=%v tiers=%d): %v", trial, lambda, frac, nTiers, err)
		}
		if err := working.Validate(1e-6); err != nil {
			t.Fatalf("trial %d: post-StEM state invalid: %v", trial, err)
		}
		for q, rate := range res.Params.Rates {
			if !(rate > 0) || math.IsInf(rate, 0) || math.IsNaN(rate) {
				t.Fatalf("trial %d: rate[%d] = %v", trial, q, rate)
			}
		}
		for i := range truth.Events {
			te := &truth.Events[i]
			if te.ObsArrival && truth.Arr[i] != working.Arr[i] {
				t.Fatalf("trial %d: observed arrival %d moved", trial, i)
			}
			if te.Final() && te.ObsDepart && truth.Dep[i] != working.Dep[i] {
				t.Fatalf("trial %d: observed departure %d moved", trial, i)
			}
		}
		// Posterior pass on the same state must also hold up, with the
		// incremental statistics cross-checked against a rescan per sweep.
		sum, err := Posterior(working, res.Params, r, PosteriorOptions{Sweeps: 20, DebugStats: true})
		if err != nil {
			t.Fatalf("trial %d posterior: %v", trial, err)
		}
		for q := 1; q < truth.NumQueues; q++ {
			if len(truth.ByQueue[q]) == 0 {
				continue
			}
			if math.IsNaN(sum.MeanWait[q]) || sum.MeanWait[q] < -1e-9 {
				t.Fatalf("trial %d: wait estimate %v at queue %d", trial, sum.MeanWait[q], q)
			}
		}
	}
}

// TestPipelineZeroAndFullObservationExtremes checks the two boundary
// observation regimes on an overloaded network.
func TestPipelineZeroAndFullObservationExtremes(t *testing.T) {
	net := must(qnet.PaperSynthetic(10, 5, [3]int{1, 1, 1}))
	for _, frac := range []float64{0, 1} {
		working, truth, _ := simulateObserved(t, net, 150, frac, uint64(8800+int(frac)))
		res, err := StEM(working, xrand.New(5), EMOptions{Iterations: 50})
		if err != nil {
			t.Fatalf("frac %v: %v", frac, err)
		}
		if frac == 1 {
			// Fully observed: exact MLE of the truth.
			direct := MLE(truth, Params{})
			for q := range direct.Rates {
				if math.Abs(res.Params.Rates[q]-direct.Rates[q]) > 1e-9 {
					t.Fatalf("full observation rate[%d] %v != MLE %v", q, res.Params.Rates[q], direct.Rates[q])
				}
			}
		} else {
			// Nothing observed: estimates exist and are positive (the
			// posterior is anchored only by the order constraints and
			// time-zero floor, so values are weakly identified but must
			// remain finite and feasible).
			for q, rate := range res.Params.Rates {
				if !(rate > 0) || math.IsInf(rate, 0) {
					t.Fatalf("zero observation rate[%d] = %v", q, rate)
				}
			}
		}
	}
}
