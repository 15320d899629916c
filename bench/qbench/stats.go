package main

import (
	"math"
	"sort"
)

// sample is one timing with the number of outcomes it stands for: a POST
// that sealed 340 tasks yields one freshness sample of weight 340.
type sample struct {
	v float64
	n int
}

// samples accumulates weighted timings.
type samples []sample

func (s *samples) add(v float64, n int) { *s = append(*s, sample{v, n}) }

// count is the number of outcomes recorded (the sum of the weights).
func (s samples) count() int {
	c := 0
	for _, x := range s {
		c += x.n
	}
	return c
}

// quantile is the weighted nearest-rank quantile: the smallest value at
// or below which at least a fraction p of the outcomes lie. NaN when
// empty.
func (s samples) quantile(p float64) float64 {
	total := s.count()
	if total == 0 {
		return math.NaN()
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].v < sorted[j].v })
	rank := int(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	seen := 0
	for _, x := range sorted {
		seen += x.n
		if seen >= rank {
			return x.v
		}
	}
	return sorted[len(sorted)-1].v
}

// mean is the weighted mean (NaN when empty).
func (s samples) mean() float64 {
	sum, c := 0.0, 0
	for _, x := range s {
		sum += x.v * float64(x.n)
		c += x.n
	}
	if c == 0 {
		return math.NaN()
	}
	return sum / float64(c)
}

// max is the largest value (0 when empty).
func (s samples) max() float64 {
	m := 0.0
	for _, x := range s {
		m = math.Max(m, x.v)
	}
	return m
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) computes the quartiles
// (its default "exclusive" method) and statistics.median the median, so
// spreads printed here match any script that recomputes them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	if n := len(d); n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	q := func(i int) float64 {
		ld, m, n := len(d), len(d)+1, 4
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return q(1), med, q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
