package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Set-up is timed over several builds and reported as their median:
// at least minSetups, and more while they stay under setupBudget in
// total, so that a cheap set-up is timed over enough builds to read
// steadily. Only the last build is kept.
const (
	minSetups   = 3
	maxSetups   = 200
	setupBudget = 500 * time.Millisecond
)

// timedSetup builds the workload state repeatedly, tearing down every
// build but the last, and returns the last build with the median set-up
// time in seconds.
func timedSetup[T any](build func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
		total time.Duration
	)
	for i := 0; i < minSetups || (total < setupBudget && i < maxSetups); i++ {
		if i > 0 && teardown != nil {
			teardown(last)
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		d := time.Since(start)
		total += d
		times = append(times, d.Seconds())
		last = v
	}
	return last, median(times), nil
}
