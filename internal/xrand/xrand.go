// Package xrand provides the deterministic random-number machinery used by
// every stochastic component in this repository: a PCG-XSL-RR 128/64
// generator, cheap stream splitting for reproducible parallel experiments,
// and samplers for the distributions the queueing model needs.
//
// The package exists (rather than using math/rand directly) so that
// experiment results are bit-reproducible across runs and so that substreams
// for independent repetitions never overlap.
package xrand

import (
	"math"
	"math/bits"
)

// RNG is a PCG-XSL-RR 128/64 pseudo-random generator. The zero value is not
// usable; construct with New or Split.
type RNG struct {
	hi, lo uint64 // 128-bit state
}

// Multiplier for the 128-bit LCG step (PCG reference implementation).
const (
	mulHi = 2549297995355413924
	mulLo = 4865540595714422341
	incHi = 6364136223846793005
	incLo = 1442695040888963407
)

// New returns a generator seeded from seed. Two generators with different
// seeds produce unrelated streams.
func New(seed uint64) *RNG {
	r := &RNG{hi: seed, lo: splitmix(seed)}
	// Warm up so that small seeds diverge immediately.
	r.Uint64()
	r.Uint64()
	return r
}

// splitmix is a splitmix64 step used for seeding.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	// 128-bit LCG state update: state = state*mul + inc.
	hi, lo := bits.Mul64(r.lo, mulLo)
	hi += r.hi*mulLo + r.lo*mulHi
	var carry uint64
	lo, carry = bits.Add64(lo, incLo, 0)
	hi, _ = bits.Add64(hi, incHi, carry)
	r.hi, r.lo = hi, lo
	// XSL-RR output function.
	return bits.RotateLeft64(hi^lo, -int(hi>>58))
}

// Split returns a new generator whose stream is independent of r's
// continuation. It consumes two values from r.
func (r *RNG) Split() *RNG {
	s := &RNG{hi: r.Uint64(), lo: r.Uint64() | 1}
	s.Uint64()
	return s
}

// Float64 returns a uniform sample in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform sample in the open interval (0, 1),
// convenient for inverse-CDF transforms that take logarithms.
func (r *RNG) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless method.
	bound := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), bound)
	if lo < bound {
		thresh := -bound % bound
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), bound)
		}
	}
	return int(hi)
}

// Uniform returns a uniform sample in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Exp returns an exponential sample with the given rate (mean 1/rate).
// It panics if rate <= 0.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exp with non-positive rate")
	}
	return -math.Log(r.Float64Open()) / rate
}

// TruncExp returns a sample from the exponential distribution with the given
// rate truncated to the interval (0, width). rate may be any non-zero value;
// a negative rate yields the density proportional to exp(-rate*x) on
// (0, width), i.e. an increasing density. rate == 0 degenerates to uniform.
func (r *RNG) TruncExp(rate, width float64) float64 {
	if width <= 0 {
		panic("xrand: TruncExp with non-positive width")
	}
	u := r.Float64()
	if rate == 0 {
		return u * width
	}
	// Inverse CDF of density ∝ exp(-rate*x) on (0,width):
	// x = -log(1 - u*(1-exp(-rate*width))) / rate, computed stably.
	x := -math.Log1p(u*math.Expm1(-rate*width)) / rate
	// Guard against boundary rounding.
	if x < 0 {
		x = 0
	}
	if x > width {
		x = width
	}
	return x
}

// Norm returns a standard normal sample (Box–Muller, one value per call).
func (r *RNG) Norm() float64 {
	u := r.Float64Open()
	v := r.Float64Open()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// Gamma returns a sample from the Gamma distribution with the given shape
// and rate (so the mean is shape/rate). It panics unless both are positive.
// Uses the Marsaglia–Tsang squeeze method.
func (r *RNG) Gamma(shape, rate float64) float64 {
	if shape <= 0 || rate <= 0 {
		panic("xrand: Gamma with non-positive shape or rate")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^{1/a}.
		u := r.Float64Open()
		return r.Gamma(shape+1, rate) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Norm()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64Open()
		if u < 1-0.0331*x*x*x*x {
			return d * v / rate
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v / rate
		}
	}
}

// Categorical returns an index sampled proportionally to weights, which must
// be non-negative and not all zero.
func (r *RNG) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("xrand: Categorical with negative or NaN weight")
		}
		total += w
	}
	if total <= 0 {
		panic("xrand: Categorical with zero total weight")
	}
	u := r.Float64() * total
	for i, w := range weights {
		u -= w
		if u < 0 {
			return i
		}
	}
	// Floating-point slack: return the last strictly positive weight.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0, n). It panics if k > n or either argument is negative.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	if k < 0 || n < 0 || k > n {
		panic("xrand: SampleWithoutReplacement with invalid arguments")
	}
	// Partial Fisher–Yates.
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	out := make([]int, k)
	copy(out, p[:k])
	return out
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Poisson returns a Poisson sample with the given mean. For small means it
// uses Knuth's product method; for large means, the PTRS transformed
// rejection method would be preferable but the simple normal approximation
// with continuity correction suffices for the mean ranges used here.
func (r *RNG) Poisson(mean float64) int {
	if mean < 0 {
		panic("xrand: Poisson with negative mean")
	}
	if mean == 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	// Normal approximation for large means.
	x := math.Floor(mean + math.Sqrt(mean)*r.Norm() + 0.5)
	if x < 0 {
		return 0
	}
	return int(x)
}
