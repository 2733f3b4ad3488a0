package main

import (
	"math"
	"sort"
	"strconv"
)

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := len(s) / 2
	if len(s)%2 == 1 {
		return s[k]
	}
	return 0.5 * (s[k-1] + s[k])
}

// tailPercentiles are the candidates for a tail latency, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile that leaves at least ten of base
// samples beyond it, taken over v, with its label ("p90"). Below 20 samples
// no candidate qualifies and the maximum is returned, labelled "max".
// Callers pass one pass's sample count as base, so the percentile a
// workload reports does not change with the number of passes a run fits.
func tail(v []float64, base int) (float64, string) {
	if len(v) == 0 {
		return 0, "max"
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	for _, p := range tailPercentiles {
		if float64(base)*(100-p)/100 >= 10 {
			k := int(math.Ceil(p * float64(len(s)) / 100)) // nearest rank
			return s[k-1], "p" + strconv.FormatFloat(p, 'f', -1, 64)
		}
	}
	return s[len(s)-1], "max"
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}
