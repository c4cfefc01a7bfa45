package trackertest

import (
	"math"
	"testing"
)

// FalseAlarmRate is the chance, per comparison, that SameMean flags two
// samples drawn from one distribution, under the normal approximation its
// z statistic rests on.
const FalseAlarmRate = 1e-4

// zBound is the two-sided standard normal quantile of FalseAlarmRate
// (3.89).
var zBound = math.Sqrt2 * math.Erfcinv(FalseAlarmRate)

// MinSamples is the smallest sample SameMean accepts: below it the normal
// approximation, and so the stated false-alarm rate, no longer holds.
const MinSamples = 20

// SameMean is the two-sample check the exact-vs-event cross-validation
// tests share. It compares the means of two independent samples of one
// metric, such as one per engine, with Welch's z statistic and fails t
// when |z| exceeds the two-sided bound of FalseAlarmRate. Callers draw
// both samples under fixed, disjoint seeds, so a verdict reproduces
// exactly; the rate is the share of seed sets on which two engines that
// simulate the same process would be flagged. It returns z.
func SameMean(t testing.TB, label string, a, b []float64) float64 {
	t.Helper()
	if len(a) < MinSamples || len(b) < MinSamples {
		t.Fatalf("%s: samples of %d and %d values, need at least %d each", label, len(a), len(b), MinSamples)
	}
	ma, va := meanVar(a)
	mb, vb := meanVar(b)
	se := math.Sqrt(va/float64(len(a)) + vb/float64(len(b)))
	var z float64
	switch {
	case se > 0:
		z = (ma - mb) / se
	case ma != mb:
		// Two constant samples at different values.
		z = math.Inf(1)
	}
	if math.Abs(z) > zBound {
		t.Errorf("%s: means %.6g vs %.6g differ by %.2f standard errors (bound %.2f, false-alarm rate %g)",
			label, ma, mb, z, zBound, FalseAlarmRate)
	}
	return z
}

// meanVar returns the mean and the unbiased sample variance of x.
func meanVar(x []float64) (mean, variance float64) {
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for _, v := range x {
		variance += (v - mean) * (v - mean)
	}
	return mean, variance / float64(len(x)-1)
}
