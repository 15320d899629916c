package core

import (
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

// TestCondSpecMatchesPiecewise draws random specs and checks that logPDF
// agrees with the general-purpose implementation everywhere, and that
// sampling matches the piecewise CDF.
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
		d := buildEquivalent(t, &c)
		for probe := 0; probe < 20; probe++ {
			x := r.Uniform(lo, hi)
			got := c.logPDF(x)
			want := d.LogPDF(x)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: logPDF(%v) = %v, piecewise %v (spec %+v)", trial, x, got, want, c)
			}
		}
		// KS-style check on a coarse grid using 20k samples.
		const n = 20000
		checks := []float64{lo + 0.25*width, lo + 0.5*width, lo + 0.75*width}
		counts := make([]int, len(checks))
		for s := 0; s < n; s++ {
			x := c.sample(r)
			if x < lo || x > hi {
				t.Fatalf("trial %d: sample %v outside (%v,%v)", trial, x, lo, hi)
			}
			for j, cp := range checks {
				if x <= cp {
					counts[j]++
				}
			}
		}
		for j, cp := range checks {
			got := float64(counts[j]) / n
			want := d.CDF(cp)
			if math.Abs(got-want) > 0.02 {
				t.Fatalf("trial %d: empirical CDF(%v)=%v, want %v", trial, cp, got, want)
			}
		}
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

func BenchmarkCondSpecSample(b *testing.B) {
	r := xrand.New(1)
	var c condSpec
	for i := 0; i < b.N; i++ {
		c.reset(0, 3, -2)
		c.addTerm(1, 2.5)
		c.addTerm(2, 1.5)
		_ = c.sample(r)
	}
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
