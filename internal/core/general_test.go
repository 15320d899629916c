package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/qnet"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func TestServiceModelFitsRecoverParameters(t *testing.T) {
	r := xrand.New(11)
	const n = 50000

	t.Run("exponential", func(t *testing.T) {
		d := dist.NewExponential(3)
		samples := drawn(r, d, n)
		m, err := ExpModel{Rate: 1}.Fit(samples)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.(ExpModel).Rate; math.Abs(got-3) > 0.1 {
			t.Fatalf("fitted rate %v, want 3", got)
		}
	})

	t.Run("gamma", func(t *testing.T) {
		d := dist.NewGamma(4, 2)
		samples := drawn(r, d, n)
		m, err := GammaModel{Shape: 1, Rate: 1}.Fit(samples)
		if err != nil {
			t.Fatal(err)
		}
		g := m.(GammaModel)
		if math.Abs(g.Shape-4) > 0.3 || math.Abs(g.Rate-2) > 0.2 {
			t.Fatalf("fitted gamma %+v, want shape 4 rate 2", g)
		}
	})

	t.Run("lognormal", func(t *testing.T) {
		d := dist.NewLogNormal(0.5, 0.8)
		samples := drawn(r, d, n)
		m, err := LogNormalModel{Mu: 0, Sigma: 1}.Fit(samples)
		if err != nil {
			t.Fatal(err)
		}
		ln := m.(LogNormalModel)
		if math.Abs(ln.Mu-0.5) > 0.02 || math.Abs(ln.Sigma-0.8) > 0.02 {
			t.Fatalf("fitted lognormal %+v, want mu 0.5 sigma 0.8", ln)
		}
	})

	t.Run("weibull", func(t *testing.T) {
		d := dist.NewWeibull(2, 1.7)
		samples := drawn(r, d, n)
		m, err := WeibullModel{Scale: 1, Shape: 1}.Fit(samples)
		if err != nil {
			t.Fatal(err)
		}
		w := m.(WeibullModel)
		if math.Abs(w.Scale-2) > 0.1 || math.Abs(w.Shape-1.7) > 0.1 {
			t.Fatalf("fitted weibull %+v, want scale 2 shape 1.7", w)
		}
	})
}

func drawn(r *xrand.RNG, d dist.Dist, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Sample(r)
	}
	return out
}

func TestWeibullCV2Monotone(t *testing.T) {
	if err := quick.Check(func(a, b float64) bool {
		x := 0.3 + math.Mod(math.Abs(a), 15)
		y := 0.3 + math.Mod(math.Abs(b), 15)
		if x > y {
			x, y = y, x
		}
		if y-x < 1e-6 {
			return true
		}
		return weibullCV2(x) >= weibullCV2(y)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestModelLogPDFMatchesDist(t *testing.T) {
	cases := []struct {
		m ServiceModel
		d dist.Dist
	}{
		{ExpModel{Rate: 2.5}, dist.NewExponential(2.5)},
		{GammaModel{Shape: 3, Rate: 1.5}, dist.NewGamma(3, 1.5)},
		{LogNormalModel{Mu: 0.3, Sigma: 0.7}, dist.NewLogNormal(0.3, 0.7)},
		{WeibullModel{Scale: 2, Shape: 1.4}, dist.NewWeibull(2, 1.4)},
	}
	for _, tc := range cases {
		for _, x := range []float64{0.05, 0.3, 1, 4} {
			if got, want := tc.m.LogPDF(x), tc.d.LogPDF(x); math.Abs(got-want) > 1e-9 {
				t.Errorf("%v logpdf(%v) = %v, dist %v", tc.m, x, got, want)
			}
		}
		if math.Abs(tc.m.Mean()-tc.d.Mean()) > 1e-9 {
			t.Errorf("%v mean %v, dist %v", tc.m, tc.m.Mean(), tc.d.Mean())
		}
	}
}

// TestGeneralGibbsExpAcceptsEverything: with exponential models the
// independence proposal IS the target, so every move must be accepted and
// the sampler must match plain Gibbs statistically.
func TestGeneralGibbsExpAcceptsEverything(t *testing.T) {
	net := must(qnet.PaperSynthetic(10, 5, [3]int{1, 2, 1}))
	working, _, _ := simulateObserved(t, net, 200, 0.2, 404)
	params, err := NewParams(net.ServiceRates())
	if err != nil {
		t.Fatal(err)
	}
	if err := (OrderInitializer{}).Initialize(working, params); err != nil {
		t.Fatal(err)
	}
	models := make([]ServiceModel, working.NumQueues)
	for q, rate := range params.Rates {
		models[q] = ExpModel{Rate: rate}
	}
	g, err := NewGeneralGibbs(working, models, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for sweep := 0; sweep < 20; sweep++ {
		g.Sweep()
		if err := working.Validate(1e-6); err != nil {
			t.Fatalf("sweep %d broke feasibility: %v", sweep, err)
		}
	}
	if acc := g.AcceptanceRate(); acc < 0.999 {
		t.Fatalf("exponential-model MH acceptance %v, want ~1 (proposal should equal target)", acc)
	}
}

// TestGeneralGibbsMatchesExactSingleLatent repeats the exact-conditional
// check with a non-exponential model: one latent arrival between two
// observed times under Gamma service has conditional density
// ∝ f_A(x-entry)·f_B(dFinal-x), which we integrate numerically.
func TestGeneralGibbsMatchesExactSingleLatent(t *testing.T) {
	mA := GammaModel{Shape: 2, Rate: 4}
	mB := GammaModel{Shape: 3, Rate: 3}
	es := buildTwoQueueSingleLatent(t)
	models := []ServiceModel{ExpModel{Rate: 1}, mA, mB}
	g, err := NewGeneralGibbs(es, models, xrand.New(17))
	if err != nil {
		t.Fatal(err)
	}
	var acc stats.Online
	for sweep := 0; sweep < 300000; sweep++ {
		g.Sweep()
		acc.Add(es.Arr[2])
	}
	// Numerical posterior mean on (1, 3).
	const steps = 200000
	lo, hi := 1.0, 3.0
	var z, zx float64
	h := (hi - lo) / steps
	for i := 0; i < steps; i++ {
		x := lo + (float64(i)+0.5)*h
		w := math.Exp(mA.LogPDF(x-lo) + mB.LogPDF(hi-x))
		z += w
		zx += w * x
	}
	want := zx / z
	if math.Abs(acc.Mean()-want) > 0.01 {
		t.Fatalf("MH posterior mean %v, exact %v (acceptance %v)", acc.Mean(), want, g.AcceptanceRate())
	}
	if a := g.AcceptanceRate(); a < 0.2 {
		t.Fatalf("acceptance %v too low for a healthy proposal", a)
	}
}

// buildTwoQueueSingleLatent builds the 1-task tandem with only the
// intermediate arrival latent (entry=1 observed, final departure=3
// observed).
func buildTwoQueueSingleLatent(t *testing.T) *trace.EventSet {
	t.Helper()
	b := trace.NewBuilder(3)
	task := b.StartTask(1.0)
	if _, err := b.AddEvent(task, 0, 1, 1.0, 1.8); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddEvent(task, 1, 2, 1.8, 3.0); err != nil {
		t.Fatal(err)
	}
	es, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	es.Events[1].ObsArrival = true
	es.Events[2].ObsDepart = true
	return es
}

// TestGeneralStEMRecoversGammaMean: ground truth with Erlang-2 service;
// GeneralStEM with GammaModel should recover the mean service times and a
// shape > 1 (i.e. detect sub-exponential variability).
func TestGeneralStEMRecoversGammaMean(t *testing.T) {
	gammaSvc := dist.NewGamma(2, 10) // mean 0.2, CV² = 0.5
	net := must(qnet.Tiered(dist.NewExponential(2), []qnet.TierSpec{
		{Name: "a", Replicas: 1, Service: gammaSvc},
		{Name: "b", Replicas: 1, Service: gammaSvc},
	}))
	working, truth, _ := simulateObserved(t, net, 800, 0.5, 505)
	models := []ServiceModel{
		ExpModel{Rate: 2},
		GammaModel{Shape: 1, Rate: 5},
		GammaModel{Shape: 1, Rate: 5},
	}
	res, err := GeneralStEM(working, models, xrand.New(6), EMOptions{Iterations: 400})
	if err != nil {
		t.Fatal(err)
	}
	trueMS := truth.MeanServiceByQueue()
	for q := 1; q <= 2; q++ {
		if math.Abs(res.MeanService[q]-trueMS[q]) > 0.05 {
			t.Errorf("queue %d mean service %v, truth %v", q, res.MeanService[q], trueMS[q])
		}
		gm := res.Models[q].(GammaModel)
		if gm.Shape < 1.2 {
			t.Errorf("queue %d fitted shape %v, want > 1.2 (true 2)", q, gm.Shape)
		}
	}
	if res.Acceptance < 0.3 {
		t.Errorf("acceptance rate %v too low", res.Acceptance)
	}
}

func TestGeneralGibbsValidation(t *testing.T) {
	net := must(qnet.SingleMM1(2, 5))
	working, _, _ := simulateObserved(t, net, 20, 0.5, 606)
	ok := []ServiceModel{ExpModel{Rate: 2}, ExpModel{Rate: 5}}
	if _, err := NewGeneralGibbs(working, ok[:1], xrand.New(1)); err == nil {
		t.Error("wrong model count should fail")
	}
	if _, err := NewGeneralGibbs(working, []ServiceModel{nil, ExpModel{Rate: 1}}, xrand.New(1)); err == nil {
		t.Error("nil model should fail")
	}
	if _, err := NewGeneralGibbs(working, ok, nil); err == nil {
		t.Error("nil rng should fail")
	}
	if _, err := GeneralStEM(working, ok, xrand.New(1), EMOptions{Iterations: 5, BurnIn: 7}); err == nil {
		t.Error("bad burn-in should fail")
	}
}

// TestGeneralGibbsGolden pins the general-service sampler bit for bit on
// seeded traces at two observed fractions: the latent times and the
// acceptance rate after ten interleaved MH and slice sweeps with Gamma
// models. Any refactor of the MH or slice moves, their conditionals or
// their scan must reproduce these hashes exactly.
func TestGeneralGibbsGolden(t *testing.T) {
	want := []struct {
		frac float64
		hash uint64
	}{
		{0.1, 0xe7f65de28f33cfe8},
		{0.5, 0x862b41e2716e4369},
	}
	for _, g := range want {
		seed := uint64(700 + int(g.frac*100))
		working, _, params := initializedWorking(t, [3]int{1, 2, 4}, 200, g.frac, seed)
		models := make([]ServiceModel, len(params.Rates))
		for q, r := range params.Rates {
			models[q] = GammaModel{Shape: 2, Rate: 2 * r}
		}
		gs := must(NewGeneralGibbs(working, models, xrand.New(seed)))
		for sweep := 0; sweep < 10; sweep++ {
			gs.Sweep()
			gs.SweepSlice()
		}
		got := hashFloats(working.Arr, working.Dep, []float64{gs.AcceptanceRate()})
		if got != g.hash {
			t.Errorf("frac %v: hash %#x, want %#x", g.frac, got, g.hash)
		}
	}
}
