package main

import (
	"math"
	"sort"
)

// summary describes the repetitions of one (workload, metric) pair.
// With n = 5 nothing above the median is supported: there are not ten
// samples beyond any higher percentile, so none is reported.
type summary struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	IQR    float64   `json:"iqr"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(values []float64) summary {
	s := summary{N: len(values), Values: values}
	if len(values) == 0 {
		return s
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Median = quantile(sorted, 0.5)
	if len(sorted) >= 2 {
		q1, q3 := quartiles(sorted)
		s.IQR = q3 - q1
	}
	return s
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.IQR / s.Median)
}

// quantile interpolates linearly between closest ranks of sorted.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// quartiles matches Python's statistics.quantiles(values, n=4)
// (exclusive method), the rule the acceptance driver applies.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return sorted[j-1] + (sorted[j]-sorted[j-1])*delta
	}
	return at(1), at(3)
}
