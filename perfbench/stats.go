package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for no samples.
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

// tail returns the highest percentile with at least ten samples beyond
// it — the order statistic with exactly ten larger samples — and that
// percentile. With ten or fewer samples it is the maximum.
func tail(xs []float64) (v, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n <= 10 {
		return quantile(xs, 1), 100
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// ms and secs convert durations for reporting.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// bucket is one cumulative Prometheus histogram bucket.
type bucket struct {
	le  float64 // upper bound; +Inf for the last
	cum float64 // samples <= le
}

// histQuantile estimates the q-quantile from cumulative buckets by linear
// interpolation inside the bucket that holds it (the Prometheus
// histogram_quantile rule). The top finite bound stands in for +Inf.
func histQuantile(bs []bucket, q float64) float64 {
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].cum
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.cum == below {
				return b.le
			}
			return lo + (b.le-lo)*(rank-below)/(b.cum-below)
		}
		lo, below = b.le, b.cum
	}
	return lo
}

// histTail is tail for a histogram.
func histTail(bs []bucket) float64 {
	if len(bs) == 0 {
		return 0
	}
	n := bs[len(bs)-1].cum
	if n <= 10 {
		return histQuantile(bs, 1)
	}
	return histQuantile(bs, (n-10)/n)
}
