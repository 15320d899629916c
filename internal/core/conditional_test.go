package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/piecewise"
	"repro/internal/xrand"
)

// buildEquivalent constructs the piecewise.LogLinear matching a condSpec.
func buildEquivalent(t *testing.T, c *condSpec) *piecewise.LogLinear {
	t.Helper()
	breaks := []float64{c.lo}
	slopes := []float64{}
	slope := c.baseSlope
	for b := 0; b < c.nBreaks; b++ {
		slopes = append(slopes, slope)
		breaks = append(breaks, c.breakAt[b])
		slope += c.breakAdd[b]
	}
	slopes = append(slopes, slope)
	breaks = append(breaks, c.hi)
	d, err := piecewise.New(breaks, slopes, 0)
	if err != nil {
		t.Fatalf("piecewise.New: %v", err)
	}
	return d
}

// TestCondSpecMatchesPiecewise checks condSpec against the log-domain
// reference, piecewise.LogLinear: logPDF at probes across the support, the
// empirical CDF of 20k samples at the reference's quartiles and deciles,
// and mean() against the reference's mean. The inputs are random specs
// plus extreme-range ones: |slope·width| from 1e-12 to 800 on either side
// of the expm1 overflow at ~709.8, piece log-masses more than 709 apart
// (so a scaled mass underflows to 0), zero-slope pieces, and infinite last
// pieces.
func TestCondSpecMatchesPiecewise(t *testing.T) {
	r := xrand.New(31)
	for trial := 0; trial < 200; trial++ {
		var c condSpec
		lo := r.Uniform(-5, 5)
		width := r.Uniform(0.1, 10)
		hi := lo + width
		c.reset(lo, hi, r.Uniform(-8, 8))
		nb := r.Intn(3)
		for b := 0; b < nb; b++ {
			// Some breakpoints inside, some outside.
			c.addTerm(r.Uniform(lo-1, hi+1), r.Uniform(0.1, 6))
		}
		checkCondSpec(t, fmt.Sprintf("trial %d", trial), &c, r)
	}
	type spec struct {
		name   string
		lo, hi float64
		base   float64
		terms  [][2]float64 // (at, add)
	}
	var extreme []spec
	for _, mw := range []float64{1e-12, 1e-8, 1e-4, 1, 37, 709, 710, 800} {
		for _, sign := range []float64{1, -1} {
			m := sign * mw
			extreme = append(extreme,
				spec{fmt.Sprintf("one piece m·w=%g", m), 2, 3, m, nil},
				spec{fmt.Sprintf("flat then m·w=%g", m), 0, 2, 0, [][2]float64{{1, m}}},
				spec{fmt.Sprintf("m·w=%g, -m·w, m·w", m), -1, 2, m, [][2]float64{{0, -2 * m}, {1, 2 * m}}},
			)
		}
	}
	extreme = append(extreme,
		// Piece 0 peaks at f = 0, piece 1 at f = 799: piece 0's scaled
		// mass underflows.
		spec{"log-masses 799 apart", 0, 2, -1, [][2]float64{{1, 801}}},
		spec{"log-masses 799 apart, mirrored", 0, 2, 800, [][2]float64{{1, -801}}},
		// The middle piece sits 800 below both outer peaks.
		spec{"middle piece 800 down", 0, 3, -800, [][2]float64{{1, 800}, {2, 800}}},
		spec{"zero, down, zero", 0, 3, 0, [][2]float64{{1, -2}, {2, 2}}},
		spec{"down, zero, up", 0, 3, -3, [][2]float64{{1, 3}, {2, 1.5}}},
		spec{"infinite tail", 1, math.Inf(1), -800, nil},
		spec{"infinite shallow tail", 1, math.Inf(1), -1e-3, nil},
		spec{"up then infinite tail", 0, math.Inf(1), 5, [][2]float64{{1, -5.5}}},
		spec{"flat then infinite tail", 0, math.Inf(1), 0, [][2]float64{{2, -1}}},
		spec{"down, flat, infinite tail", 0, math.Inf(1), -2, [][2]float64{{1, 2}, {3, -700}}},
		spec{"up 800 then infinite tail", 0, math.Inf(1), 800, [][2]float64{{1, -801}}},
	)
	for _, sp := range extreme {
		var c condSpec
		c.reset(sp.lo, sp.hi, sp.base)
		for _, tm := range sp.terms {
			c.addTerm(tm[0], tm[1])
		}
		checkCondSpec(t, sp.name, &c, r)
	}
}

// checkCondSpec compares one spec's logPDF, sample CDF and mean with the
// piecewise.LogLinear of the same pieces.
func checkCondSpec(t *testing.T, name string, c *condSpec, r *xrand.RNG) {
	t.Helper()
	d := buildEquivalent(t, c)
	// Quantiles of the reference by bisection; a finite span to probe.
	quantile := func(p float64) float64 {
		a, b := c.lo, c.hi
		if math.IsInf(b, 1) {
			for b = c.lo + 1; d.CDF(b) < p; b = c.lo + 2*(b-c.lo) {
			}
		}
		for k := 0; k < 200 && a < b; k++ {
			mid := a + (b-a)/2
			if d.CDF(mid) < p {
				a = mid
			} else {
				b = mid
			}
		}
		return b
	}
	hi := c.hi
	if math.IsInf(hi, 1) {
		hi = quantile(1 - 1e-9)
	}
	for probe := 0; probe <= 20; probe++ {
		x := c.lo + float64(probe)/20*(hi-c.lo)
		got, want := c.logPDF(x), d.LogPDF(x)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s: logPDF(%v) = %v, piecewise %v (spec %+v)", name, x, got, want, *c)
		}
	}
	ps := []float64{0.1, 0.25, 0.5, 0.75, 0.9}
	checks := make([]float64, len(ps))
	for j, p := range ps {
		checks[j] = quantile(p)
	}
	const n = 20000
	counts := make([]int, len(checks))
	for s := 0; s < n; s++ {
		x := c.sample(r)
		if x < c.lo || x > c.hi {
			t.Fatalf("%s: sample %v outside (%v,%v)", name, x, c.lo, c.hi)
		}
		for j, cp := range checks {
			if x <= cp {
				counts[j]++
			}
		}
	}
	for j, cp := range checks {
		got, want := float64(counts[j])/n, d.CDF(cp)
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("%s: empirical CDF(%v) = %v, want %v (spec %+v)", name, cp, got, want, *c)
		}
	}
	// The reference mean as lo + ∫(1 − CDF): Simpson's rule on every finite
	// piece, and the exact exponential tail beyond an infinite piece's left
	// edge. (piecewise.Mean's closed form cancels for tiny |slope·width|.)
	edges := []float64{c.lo}
	for b := 0; b < c.nBreaks; b++ {
		edges = append(edges, c.breakAt[b])
	}
	edges = append(edges, c.hi)
	want := c.lo
	for i := 0; i+1 < len(edges); i++ {
		a, b := edges[i], edges[i+1]
		if math.IsInf(b, 1) {
			slope := c.baseSlope
			for k := 0; k < c.nBreaks; k++ {
				slope += c.breakAdd[k]
			}
			want += (1 - d.CDF(a)) / -slope
			break
		}
		const steps = 4000
		h := (b - a) / steps
		sum := 2 - d.CDF(a) - d.CDF(b)
		for k := 1; k < steps; k++ {
			wt := 2.0
			if k%2 == 1 {
				wt = 4
			}
			sum += wt * (1 - d.CDF(a+float64(k)*h))
		}
		want += sum * h / 3
	}
	if got := c.mean(); math.Abs(got-want) > 1e-7*(hi-c.lo) {
		t.Fatalf("%s: mean() = %v, reference %v (spec %+v)", name, got, want, *c)
	}
}

func TestCondSpecUnboundedTail(t *testing.T) {
	var c condSpec
	c.reset(2, math.Inf(1), -3)
	r := xrand.New(5)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		x := c.sample(r)
		if x < 2 {
			t.Fatalf("sample %v below support", x)
		}
		sum += x
	}
	// Exp(3) shifted by 2: mean 2 + 1/3.
	if math.Abs(sum/n-(2+1.0/3)) > 0.01 {
		t.Fatalf("tail mean %v, want %v", sum/n, 2+1.0/3)
	}
}

func TestCondSpecUnboundedWithBreak(t *testing.T) {
	// Departure-move shape: slope -µ then breakpoint adds +µ... that would
	// make the tail flat (invalid); in the sampler the tail beyond the last
	// in-queue arrival only occurs bounded. Here test a valid unbounded
	// two-piece: -1 then -3 via addTerm(-2).
	var c condSpec
	c.reset(0, math.Inf(1), -1)
	c.addTerm(1, -2)
	r := xrand.New(6)
	d := buildEquivalent(t, &c)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += c.sample(r)
	}
	if math.Abs(sum/n-d.Mean()) > 0.01 {
		t.Fatalf("mean %v, piecewise analytic %v", sum/n, d.Mean())
	}
}

func TestCondSpecBreakOrdering(t *testing.T) {
	// Insert breakpoints out of order; spec must sort them.
	var c condSpec
	c.reset(0, 10, -1)
	c.addTerm(7, 2)
	c.addTerm(3, 1)
	if c.nBreaks != 2 || c.breakAt[0] != 3 || c.breakAt[1] != 7 {
		t.Fatalf("breakpoints not sorted: %+v", c)
	}
	// Coincident breakpoints merge.
	var c2 condSpec
	c2.reset(0, 10, -1)
	c2.addTerm(4, 2)
	c2.addTerm(4, 0.5)
	if c2.nBreaks != 1 || c2.breakAdd[0] != 2.5 {
		t.Fatalf("coincident breakpoints not merged: %+v", c2)
	}
}

func TestCondSpecFoldsOutOfRange(t *testing.T) {
	var c condSpec
	c.reset(1, 2, -1)
	c.addTerm(0.5, 3) // below lo: folds into base
	c.addTerm(2.5, 9) // above hi: inert
	if c.baseSlope != 2 || c.nBreaks != 0 {
		t.Fatalf("out-of-range terms mishandled: %+v", c)
	}
}

// TestConditionalsMatchJointLikelihood ties both full conditionals to the
// joint density of a whole multi-queue trace. For every latent arrival and
// final departure it checks, on a grid that includes points 1e-3 of the
// width inside each end, that the conditional's log-density differences
// equal Params.LogLikelihood differences and that every grid point leaves
// the trace feasible; a point just below the lower bound, or just above a
// finite upper bound, must make it infeasible. A wrong slope, a loosened
// bound or a tightened bound each fail it.
func TestConditionalsMatchJointLikelihood(t *testing.T) {
	// The initializer's state is feasible whatever the conditionals do, so
	// a planted bug shows in the checks below rather than in the set-up.
	es, _, params := initializedWorking(t, [3]int{1, 2, 4}, 80, 0.2, 17)
	if err := es.Validate(0); err != nil {
		t.Fatalf("initial state infeasible: %v", err)
	}
	fracs := []float64{1e-3, 0.25, 0.5, 0.75, 1 - 1e-3}
	points, sides := 0, 0
	check := func(kind string, i int, c *condSpec, set func(x float64), cur float64) {
		t.Helper()
		width := c.hi - c.lo
		if math.IsInf(c.hi, 1) {
			// Unbounded tail: grid over (lo, cur + 5 mean service times).
			width = cur - c.lo + 5/params.Rates[es.Events[i].Queue]
		}
		ll0 := params.LogLikelihood(es)
		q0 := c.logPDF(cur)
		for _, f := range fracs {
			x := c.lo + f*width
			set(x)
			if err := es.Validate(0); err != nil {
				t.Errorf("%s %d: grid point %v in (%v, %v) infeasible: %v", kind, i, x, c.lo, c.hi, err)
			}
			want := params.LogLikelihood(es) - ll0
			got := c.logPDF(x) - q0
			if math.Abs(got-want) > 1e-7*math.Max(1, math.Abs(want)) {
				t.Errorf("%s %d: log-density difference at %v is %v, joint likelihood says %v", kind, i, x, got, want)
			}
			points++
		}
		outside := []float64{c.lo - 1e-3*width}
		if !math.IsInf(c.hi, 1) {
			outside = append(outside, c.hi+1e-3*width)
		}
		for _, x := range outside {
			set(x)
			if es.Validate(0) == nil {
				t.Errorf("%s %d: %v outside (%v, %v) is still feasible", kind, i, x, c.lo, c.hi)
			}
			sides++
		}
		set(cur)
	}
	for i := range es.Events {
		e := &es.Events[i]
		var c condSpec
		if latentArrival(e) && arrivalCond(&c, es, params.Rates, i) {
			check("arrival", i, &c, func(x float64) { es.SetArrival(i, x) }, es.Arr[i])
		}
		if latentFinalDepart(e) && finalDepartCond(&c, es, params.Rates, i) {
			check("departure", i, &c, func(x float64) { es.SetFinalDepart(i, x) }, es.Dep[i])
		}
	}
	if points < 500 || sides < 100 {
		t.Fatalf("oracle covered only %d points and %d bound sides", points, sides)
	}
	t.Logf("checked %d points and %d bound sides", points, sides)
}

var condSink float64

// BenchmarkCondSpecSample builds and samples 1-, 2- and 3-piece
// conditionals (the shapes an arrival move builds), and takes the 3-piece
// one's mean, the mean-field update.
func BenchmarkCondSpecSample(b *testing.B) {
	build := func(c *condSpec, pieces int) {
		c.reset(0, 3, -2)
		if pieces > 1 {
			c.addTerm(1, 2.5)
		}
		if pieces > 2 {
			c.addTerm(2, 1.5)
		}
	}
	for pieces := 1; pieces <= 3; pieces++ {
		b.Run(fmt.Sprintf("pieces%d", pieces), func(b *testing.B) {
			r := xrand.New(1)
			var c condSpec
			for i := 0; i < b.N; i++ {
				build(&c, pieces)
				condSink = c.sample(r)
			}
		})
	}
	b.Run("mean3", func(b *testing.B) {
		var c condSpec
		for i := 0; i < b.N; i++ {
			build(&c, 3)
			condSink = c.mean()
		}
	})
}

func BenchmarkPiecewiseEquivalentSample(b *testing.B) {
	r := xrand.New(1)
	breaks := []float64{0, 1, 2, 3}
	slopes := []float64{-2, 0.5, 2}
	for i := 0; i < b.N; i++ {
		d, err := piecewise.New(breaks, slopes, 0)
		if err != nil {
			b.Fatal(err)
		}
		_ = d.Sample(r)
	}
}

// TestExpLogForms holds the draw's expm1 and log1p to math.Expm1 and
// math.Log1p within 1e-11 relative: over dense grids of magnitudes from
// 1e-300 to the overflow edge and of the unit range, and at the edges —
// ±0 (sign kept), both sides of the series threshold, ±1e-300, x ≥ 709.8
// (+Inf), x ≤ −745 (−1), and y down to −1 (−Inf).
func TestExpLogForms(t *testing.T) {
	agree := func(name string, f, ref func(float64) float64, x float64) {
		t.Helper()
		got, want := f(x), ref(x)
		switch {
		case math.IsNaN(want) || math.IsInf(want, 0) || want == 0:
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("%s(%v) = %v, want %v", name, x, got, want)
			}
		case math.Abs(got-want) > 1e-11*math.Abs(want):
			t.Errorf("%s(%v) = %v, want %v (rel err %.3g)", name, x, got, want, math.Abs(got-want)/math.Abs(want))
		}
	}
	var xs, ys []float64
	for e := -300.0; e <= 2.86; e += 0.01 { // magnitudes 1e-300 … ~724
		m := math.Pow(10, e)
		xs = append(xs, m, -m)
		ys = append(ys, m, -math.Min(m, 1))
	}
	for v := -3.0; v <= 3; v += 1e-4 {
		xs = append(xs, v)
		ys = append(ys, v)
	}
	for e := 1.0; e <= 17; e += 0.01 { // y → −1 from above
		ys = append(ys, -1+math.Pow(10, -e))
	}
	edges := []float64{0, math.Copysign(0, -1), 1e-300, -1e-300,
		expLogSeries, -expLogSeries,
		math.Nextafter(expLogSeries, 0), math.Nextafter(-expLogSeries, 0),
		math.Nextafter(expLogSeries, 1), math.Nextafter(-expLogSeries, -1),
		math.Inf(1), math.Inf(-1), math.NaN()}
	xs = append(xs, edges...)
	xs = append(xs, 709.78, 709.8, 710, 1e300, -745, -746, -1e300)
	ys = append(ys, edges...)
	ys = append(ys, -1, math.Nextafter(-1, 0), -1.5, 1e300)
	for _, x := range xs {
		agree("expm1", expm1, math.Expm1, x)
	}
	for _, y := range ys {
		agree("log1p", log1p, math.Log1p, y)
	}
	if math.Signbit(expm1(math.Copysign(0, -1))) != true || math.Signbit(log1p(math.Copysign(0, -1))) != true {
		t.Error("expm1/log1p drop the sign of −0")
	}
	if !math.IsInf(expm1(709.8), 1) || expm1(-745) != -1 || !math.IsInf(log1p(-1), -1) {
		t.Errorf("edges: expm1(709.8) = %v, expm1(−745) = %v, log1p(−1) = %v", expm1(709.8), expm1(-745), log1p(-1))
	}
}

var expLogSink float64

// BenchmarkCondSpecExpLog times the draw's expm1 and log1p against
// math.Expm1 and math.Log1p over arguments typical of the pieces (|x| up
// to a few units).
func BenchmarkCondSpecExpLog(b *testing.B) {
	args := make([]float64, 1024)
	r := xrand.New(3)
	for i := range args {
		args[i] = 6*r.Float64() - 3
	}
	for _, f := range []struct {
		name string
		fn   func(float64) float64
	}{{"expm1", expm1}, {"math.Expm1", math.Expm1}, {"log1p", func(y float64) float64 { return log1p(y/3 + 0.5) }},
		{"math.Log1p", func(y float64) float64 { return math.Log1p(y/3 + 0.5) }}} {
		b.Run(f.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				expLogSink += f.fn(args[i&1023])
			}
		})
	}
}
