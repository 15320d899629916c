package core

import (
	"math"

	"repro/internal/xrand"
)

// Slice sampling is the alternative update kernel for the general-service
// sampler: instead of the independence Metropolis–Hastings proposal (whose
// acceptance degrades when the true conditional is much more peaked than
// its moment-matched exponential proxy, e.g. high-shape Gamma services),
// each latent variable is updated by a shrinking-interval slice sampler on
// its bounded support. Slice updates leave the conditional exactly
// invariant and never reject, at the cost of a few more density
// evaluations per move.

// sliceMaxShrink bounds the shrink loop; the interval halves each step so
// 64 iterations reach float64 resolution from any width.
const sliceMaxShrink = 64

// sliceSample draws the next value of a variable with current value cur,
// bounded support (lo, hi), and unnormalized log density logf (which must
// be finite at cur). It implements the shrinkage procedure of Neal (2003)
// with the full support as the initial interval — valid because the
// support is bounded, and guaranteeing the correct stationary
// distribution.
func sliceSample(r *xrand.RNG, lo, hi, cur float64, logf func(x float64) float64) float64 {
	fcur := logf(cur)
	if math.IsInf(fcur, -1) || math.IsNaN(fcur) {
		// Defensive: the current state should always have positive
		// density; keep it unchanged if not.
		return cur
	}
	// Vertical slice: y = f(cur) · U, i.e. log y = log f(cur) + log U.
	logy := fcur + math.Log(r.Float64Open())
	return sliceShrink(r, lo, hi, cur, logy, logf)
}

// sliceShrink draws uniformly from (lo, hi), shrinking the interval toward
// cur after each rejected point, until a point lies above the slice level
// logy; it keeps cur if sliceMaxShrink draws all miss.
func sliceShrink(r *xrand.RNG, lo, hi, cur, logy float64, logf func(x float64) float64) float64 {
	for i := 0; i < sliceMaxShrink; i++ {
		x := r.Uniform(lo, hi)
		if logf(x) > logy {
			return x
		}
		if x < cur {
			lo = x
		} else {
			hi = x
		}
	}
	return cur
}

// SweepSlice performs one full scan of the general sampler using slice
// updates instead of Metropolis–Hastings. It may be freely interleaved
// with Sweep (both leave the posterior invariant).
func (g *GeneralGibbs) SweepSlice() {
	g.moves.scan(g.sweeps%2 == 1, g.sliceArrival, g.sliceFinalDeparture)
	g.sweeps++
}

// sliceArrival updates one latent arrival with a slice move on its bounded
// window (arrivalBounds).
func (g *GeneralGibbs) sliceArrival(i int) {
	es := g.set
	lo, hi := arrivalBounds(es, i)
	if !(lo < hi) {
		return
	}
	logf := func(x float64) float64 {
		es.SetArrival(i, x)
		return g.localArrivalLogDensity(i)
	}
	es.SetArrival(i, sliceSample(g.rng, lo, hi, es.Arr[i], logf))
}

// sliceFinalDeparture updates one latent terminal departure on its window
// (finalDepartBounds). The support may be unbounded above; the initial
// interval is then capped at the current value plus a generous multiple of
// the model mean, and doubled (stepping out) while the density at the cap
// still exceeds the slice — bounded by the same iteration cap.
func (g *GeneralGibbs) sliceFinalDeparture(i int) {
	es := g.set
	lo, hi := finalDepartBounds(es, i)
	if !(lo < hi) {
		return
	}
	cur := es.Dep[i]
	logf := func(x float64) float64 {
		es.Dep[i] = x
		return g.localDepartLogDensity(i)
	}
	if math.IsInf(hi, 1) {
		// Step out from a finite initial cap until the tail is covered.
		hiCap := cur + 10*g.models[es.Events[i].Queue].Mean()
		fcur := logf(cur)
		logy := fcur + math.Log(g.rng.Float64Open())
		for step := 0; step < sliceMaxShrink && logf(hiCap) > logy; step++ {
			hiCap = lo + 2*(hiCap-lo)
		}
		// Shrink within (lo, hiCap) against the already-drawn slice level.
		es.Dep[i] = sliceShrink(g.rng, lo, hiCap, cur, logy, logf)
		return
	}
	es.Dep[i] = sliceSample(g.rng, lo, hi, cur, logf)
}
