package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailSelection(t *testing.T) {
	for _, tc := range []struct {
		n, percentile int
		value         float64
	}{
		{n: 20, percentile: 50, value: 10},
		{n: 40, percentile: 75, value: 30},
		{n: 57, percentile: 82, value: 47},
		{n: 100, percentile: 90, value: 90},
		{n: 1000, percentile: 99, value: 990},
	} {
		got, ok := tail(seq(tc.n))
		if !ok {
			t.Fatalf("n=%d: no tail", tc.n)
		}
		if got.Percentile != tc.percentile || got.Value != tc.value || got.N != tc.n {
			t.Errorf("n=%d: tail = %+v, want p%d = %v", tc.n, got, tc.percentile, tc.value)
		}
		if got.Beyond < tailMinBeyond {
			t.Errorf("n=%d: only %d samples beyond p%d", tc.n, got.Beyond, got.Percentile)
		}
		// The next percentile up must leave fewer than tailMinBeyond.
		if p := got.Percentile + 1; p <= 99 && tc.n-(p*tc.n+99)/100 >= tailMinBeyond {
			t.Errorf("n=%d: p%d also has %d samples beyond; p%d is not the highest", tc.n, p, tc.n-(p*tc.n+99)/100, got.Percentile)
		}
	}
	for _, n := range []int{0, 1, 11, 19} {
		if got, ok := tail(seq(n)); ok {
			t.Errorf("n=%d: got tail %+v from too few samples", n, got)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("empty median = %v, want NaN", got)
	}
	// Seconds in, milliseconds out, by linear interpolation.
	if got := quartilesMS([]float64{0.005, 0.001, 0.003, 0.002, 0.004}); got != [3]float64{2, 3, 4} {
		t.Errorf("quartiles = %v, want [2 3 4]", got)
	}
}

func TestMetricSlug(t *testing.T) {
	for in, want := range map[string]string{
		"PrIDE+RFM40": "pride-rfm40",
		"PrIDE+RFM16": "pride-rfm16",
		"PARA-MC":     "para-mc",
		"PRoHIT":      "prohit",
		"DSAC":        "dsac",
		"a  b//c":     "a-b-c",
		"+x+":         "x",
	} {
		if got := metricSlug(in); got != want {
			t.Errorf("metricSlug(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCheckNames(t *testing.T) {
	good := metrics{}
	good.set("sim.attack.pride-rfm40_s", 1, "s")
	good.set("server.run.replay_ms", 1, "ms")
	if err := checkNames(good); err != nil {
		t.Errorf("valid names rejected: %v", err)
	}
	long := ""
	for i := 0; i < 65; i++ {
		long += "a"
	}
	for _, name := range []string{"sim.attack.PrIDE+RFM40_s", "a b", "-lead", "", long} {
		bad := metrics{}
		bad.set(name, 1, "s")
		if checkNames(bad) == nil {
			t.Errorf("invalid name %q accepted", name)
		}
	}
}
