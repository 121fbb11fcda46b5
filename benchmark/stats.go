package main

import (
	"math"
	"sort"
)

// Metric is one reported number: the median of a run's samples (one
// sample per window, or per set-up) with its quartiles, range and
// sample count.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// summarize builds a Metric from samples (at least one).
func summarize(unit string, samples []float64) *Metric {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q1, med, q3 := quartiles(s)
	return &Metric{
		Value: med, Unit: unit, Q1: q1, Q3: q3,
		Min: s[0], Max: s[len(s)-1], N: len(s),
	}
}

// quartiles returns the first quartile, median and third quartile of
// sorted values. The quartiles follow Python's
// statistics.quantiles(values, n=4) (the "exclusive" method), the rule
// BENCHMARK.json's spreads are judged by; one value is its own quartiles.
func quartiles(s []float64) (q1, med, q3 float64) {
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	med = s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		delta := i*m - j*4
		lo, hi := j-1, j
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		return (s[lo]*float64(4-delta) + s[hi]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

// median of unsorted values.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	_, m, _ := quartiles(s)
	return m
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of unsorted values; it sorts v in place.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	k := int(math.Ceil(p/100*float64(len(v)))) - 1
	if k < 0 {
		k = 0
	}
	return v[k]
}

// spread is the quartile distance as a share of the median.
func (m *Metric) spread() float64 {
	if m.Value == 0 {
		if m.Q3 == m.Q1 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(m.Q3-m.Q1) / math.Abs(m.Value)
}
