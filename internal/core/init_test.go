package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/qnet"
	"repro/internal/trace"
)

// scrambleLatent wipes the unobserved times so initializers must actually
// reconstruct them (zeroing would violate constraints immediately).
func scrambleLatent(es *trace.EventSet) {
	for i := range es.Events {
		e := &es.Events[i]
		if !e.Initial() && !e.ObsArrival {
			// Intentionally invalid placeholder.
			es.Arr[i] = -1
			if e.PrevT != trace.None {
				es.Dep[e.PrevT] = -1
			}
		}
		if e.Final() && !e.ObsDepart {
			es.Dep[i] = -1
		}
	}
}

func TestOrderInitializerFeasibleAcrossFractions(t *testing.T) {
	net := must(qnet.PaperSynthetic(10, 5, [3]int{1, 2, 4}))
	params, err := NewParams(net.ServiceRates())
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0, 0.05, 0.25, 0.75, 1} {
		working, _, _ := simulateObserved(t, net, 200, frac, uint64(100+int(frac*100)))
		scrambleLatent(working)
		if err := (OrderInitializer{}).Initialize(working, params); err != nil {
			t.Fatalf("frac %v: %v", frac, err)
		}
		if err := working.Validate(1e-6); err != nil {
			t.Fatalf("frac %v: initialized state invalid: %v", frac, err)
		}
	}
}

func TestOrderInitializerPreservesObservations(t *testing.T) {
	net := must(qnet.PaperSynthetic(10, 5, [3]int{2, 2, 2}))
	working, truth, _ := simulateObserved(t, net, 150, 0.3, 21)
	params, err := NewParams(net.ServiceRates())
	if err != nil {
		t.Fatal(err)
	}
	scrambleLatent(working)
	if err := (OrderInitializer{}).Initialize(working, params); err != nil {
		t.Fatal(err)
	}
	for i := range truth.Events {
		te := &truth.Events[i]
		if te.ObsArrival && truth.Arr[i] != working.Arr[i] {
			t.Fatalf("event %d observed arrival changed", i)
		}
		if te.Final() && te.ObsDepart && truth.Dep[i] != working.Dep[i] {
			t.Fatalf("event %d observed departure changed", i)
		}
	}
}

func TestOrderInitializerAimsForTargetServices(t *testing.T) {
	// With nothing observed, every service time should be near the target
	// (no upper envelopes bind).
	net := must(qnet.SingleMM1(2, 4))
	working, _, _ := simulateObserved(t, net, 100, 0, 31)
	params, err := NewParams([]float64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	scrambleLatent(working)
	if err := (OrderInitializer{}).Initialize(working, params); err != nil {
		t.Fatal(err)
	}
	ms := working.MeanServiceByQueue()
	if math.Abs(ms[1]-0.25) > 0.05 {
		t.Fatalf("unconstrained init mean service %v, target 0.25", ms[1])
	}
	if math.Abs(ms[0]-0.5) > 0.1 {
		t.Fatalf("unconstrained init mean interarrival %v, target 0.5", ms[0])
	}
}

func TestLPInitializerFeasibleAndTargeted(t *testing.T) {
	net := must(qnet.PaperSynthetic(8, 4, [3]int{1, 1, 1}))
	working, _, _ := simulateObserved(t, net, 30, 0.3, 41)
	params, err := NewParams(net.ServiceRates())
	if err != nil {
		t.Fatal(err)
	}
	scrambleLatent(working)
	if err := (LPInitializer{}).Initialize(working, params); err != nil {
		t.Fatal(err)
	}
	if err := working.Validate(1e-6); err != nil {
		t.Fatalf("LP-initialized state invalid: %v", err)
	}
}

// TestLPBeatsOrderOnObjective: the LP minimizes Σ|s − target| so its
// objective value must be no worse than the heuristic's on the same trace.
func TestLPBeatsOrderOnObjective(t *testing.T) {
	net := must(qnet.PaperSynthetic(8, 4, [3]int{1, 2, 1}))
	params, err := NewParams(net.ServiceRates())
	if err != nil {
		t.Fatal(err)
	}
	objective := func(es *trace.EventSet) float64 {
		var total float64
		for i := range es.Events {
			target := 1 / params.Rates[es.Events[i].Queue]
			total += math.Abs(es.ServiceTime(i) - target)
		}
		return total
	}
	for seed := uint64(0); seed < 5; seed++ {
		a, _, _ := simulateObserved(t, net, 25, 0.4, 500+seed)
		b := a.Clone()
		scrambleLatent(a)
		scrambleLatent(b)
		if err := (OrderInitializer{}).Initialize(a, params); err != nil {
			t.Fatal(err)
		}
		var lpOpt float64
		ini := LPInitializer{Objective: &lpOpt}
		if err := ini.Initialize(b, params); err != nil {
			t.Fatal(err)
		}
		// The heuristic's assignment (with t = max) is feasible for the LP,
		// so the LP optimum cannot exceed the heuristic's realized
		// objective.
		if lpOpt > objective(a)+1e-6 {
			t.Fatalf("seed %d: LP optimum %v exceeds heuristic objective %v", seed, lpOpt, objective(a))
		}
		// And the realized LP objective is bounded below by the optimum.
		if objective(b) < lpOpt-1e-6 {
			t.Fatalf("seed %d: realized objective %v below LP bound %v", seed, objective(b), lpOpt)
		}
	}
}

func TestLPInitializerSizeGuard(t *testing.T) {
	net := must(qnet.SingleMM1(2, 5))
	working, _, _ := simulateObserved(t, net, 400, 0.1, 51)
	params, err := NewParams([]float64{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := (LPInitializer{}).Initialize(working, params); err == nil {
		t.Fatal("expected size-guard error for 800-event trace")
	}
	if err := (LPInitializer{MaxEvents: 2000}).Initialize(working, params); err != nil {
		t.Fatalf("raised guard should allow the trace: %v", err)
	}
}

func TestInitializersRejectWrongRateCount(t *testing.T) {
	net := must(qnet.SingleMM1(2, 5))
	working, _, _ := simulateObserved(t, net, 10, 0.5, 61)
	bad := Params{Rates: []float64{1}}
	if err := (OrderInitializer{}).Initialize(working, bad); err == nil {
		t.Error("order initializer accepted wrong rate count")
	}
	if err := (LPInitializer{}).Initialize(working, bad); err == nil {
		t.Error("LP initializer accepted wrong rate count")
	}
}

func TestDepGraphPinnedDetection(t *testing.T) {
	net := must(qnet.SingleMM1(2, 5))
	working, _, obs := simulateObserved(t, net, 40, 0.5, 71)
	for i := range working.Events {
		e := &working.Events[i]
		isObsTask := false
		for _, k := range obs {
			if e.Task == k {
				isObsTask = true
				break
			}
		}
		if got := pinnedDepart(working, i); got != isObsTask {
			t.Fatalf("event %d pinnedDepart=%v, want %v (task observation)", i, got, isObsTask)
		}
	}
}

// TestOrderInitializerGolden pins the exact latent times OrderInitializer
// and LPInitializer construct on seeded simulator traces, at three observed
// fractions and two target-rate vectors (the second pushes one rate past
// rateCeil, which OrderInitializer must honour unclamped). Both
// constructions depend only on each event's graph predecessors and
// successors, so any refactor of the constraint graph — including a
// different topological order — must reproduce these hashes bit for bit.
func TestOrderInitializerGolden(t *testing.T) {
	hashTimes := func(es *trace.EventSet) uint64 {
		h := fnv.New64a()
		var b [8]byte
		for i := range es.Arr {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(es.Arr[i]))
			h.Write(b[:])
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(es.Dep[i]))
			h.Write(b[:])
		}
		return h.Sum64()
	}
	orderNet := must(qnet.PaperSynthetic(10, 5, [3]int{1, 2, 4}))
	lpNet := must(qnet.PaperSynthetic(8, 4, [3]int{1, 2, 1}))
	targets := func(net *qnet.Network) []Params {
		truth := append([]float64(nil), net.ServiceRates()...)
		skew := append([]float64(nil), truth...)
		skew[1] = 2 * rateCeil
		skew[2] *= 0.25
		return []Params{{Rates: truth}, {Rates: skew}}
	}
	type golden struct {
		frac      float64
		order, lp [2]uint64
	}
	want := []golden{
		{0, [2]uint64{0xc6883286a1d45e6, 0xf5c510803579127e}, [2]uint64{0x50d872062ea6d4d3, 0xecfb45e04cbe7d34}},
		{0.25, [2]uint64{0x32e08be7fbc480b6, 0x7f4d007b2b8ff2c}, [2]uint64{0x9248b66528c0507a, 0x136c05301a6d5280}},
		{0.75, [2]uint64{0x386f31b5e971cce9, 0x37876b52f0d5b436}, [2]uint64{0x9bb4a1b20c6f20c7, 0x7572b10c598d83bf}},
	}
	for _, g := range want {
		seed := uint64(700 + int(g.frac*100))
		for k, params := range targets(orderNet) {
			working, _, _ := simulateObserved(t, orderNet, 300, g.frac, seed)
			scrambleLatent(working)
			if err := (OrderInitializer{}).Initialize(working, params); err != nil {
				t.Fatalf("order frac %v target %d: %v", g.frac, k, err)
			}
			if got := hashTimes(working); got != g.order[k] {
				t.Errorf("order frac %v target %d: hash %#x, want %#x", g.frac, k, got, g.order[k])
			}
		}
		for k, params := range targets(lpNet) {
			working, _, _ := simulateObserved(t, lpNet, 25, g.frac, seed)
			scrambleLatent(working)
			if err := (LPInitializer{}).Initialize(working, params); err != nil {
				t.Fatalf("LP frac %v target %d: %v", g.frac, k, err)
			}
			if got := hashTimes(working); got != g.lp[k] {
				t.Errorf("LP frac %v target %d: hash %#x, want %#x", g.frac, k, got, g.lp[k])
			}
		}
	}
}
