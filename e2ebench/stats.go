package main

import (
	"sort"
	"time"
)

// percentile is the q-quantile of v by linear interpolation between
// order statistics; 0 for an empty sample.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(v []float64) float64 { return percentile(v, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
