package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the choosing-metrics rule for tail percentiles: a reported
// percentile needs at least this many samples strictly beyond it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and the
// number of samples ranked beyond it. xs need not be sorted.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p * float64(len(s))))
	k = min(max(k, 1), len(s))
	return s[k-1], len(s) - k
}

// tail returns the p-quantile of xs, or an error when fewer than minBeyond
// samples lie beyond it.
func tail(xs []float64, p float64) (float64, error) {
	v, beyond := percentile(xs, p)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d",
			p*100, len(xs), beyond, minBeyond)
	}
	return v, nil
}

// median is the nearest-rank median.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// interval is one job's wall-clock span.
type interval struct{ start, end time.Time }

// overlap is the length of [a0,a1) ∩ [b0,b1).
func overlap(a0, a1, b0, b1 time.Time) time.Duration {
	s, e := a0, a1
	if b0.After(s) {
		s = b0
	}
	if b1.Before(e) {
		e = b1
	}
	if e.After(s) {
		return e.Sub(s)
	}
	return 0
}

// geomean is the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
