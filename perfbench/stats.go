package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minTail is the number of samples that must lie beyond a percentile before
// it is reported: a p90 needs at least 100 samples, a p50 at least 20.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of xs by linear
// interpolation between closest ranks, and whether xs has enough samples for
// it: at least minTail samples must lie beyond the percentile.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 || float64(len(xs))*(1-q) < minTail-1e-9 {
		return 0, false
	}
	return quantile(xs, q), true
}

// quantile is the unconditional interpolated q-quantile of xs (0 if empty).
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

// median is the middle value of xs; unlike percentile it is reported for any
// non-empty sample, because it summarises repeated passes of identical work.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// metricName is the charset every reported metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkName rejects a metric name outside the benchmark's charset.
func checkName(name string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q is outside [A-Za-z0-9_.-]", name)
	}
	return nil
}
