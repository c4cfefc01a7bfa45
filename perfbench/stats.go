package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values. Names are validated by checkNames
// before anything is printed.
type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) { m[name] = metric{value, unit} }

// setEndToEnd sets the end-to-end metrics of an untraced run: the median
// of the operations' CPU times (seconds), the operations completed per
// CPU-second of the timed phase, the median set-up CPU time (seconds) and
// the peak RSS.
func (m metrics) setEndToEnd(opCPU []float64, ops int, phaseCPU time.Duration, setups []float64, rssMB float64) {
	m.set("op_cpu_ms", median(opCPU)*1e3, "ms")
	m.set("ops_per_cpu_s", float64(ops)/phaseCPU.Seconds(), "op/cpu-s")
	m.set("setup_s", median(setups), "s")
	m.set("peak_rss_mb", rssMB, "MB")
}

// metricNameRE is the benchmark's metric-name alphabet.
var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames rejects any name outside the metric-name alphabet.
func checkNames(m metrics) error {
	for name := range m {
		if !metricNameRE.MatchString(name) {
			return fmt.Errorf("invalid metric name %q", name)
		}
	}
	return nil
}

// metricSlug turns a display name such as a scheme name into a metric-name
// component: lower case, and every run of characters outside [a-z0-9_.]
// becomes one '-', so "PrIDE+RFM40" becomes "pride-rfm40".
func metricSlug(s string) string {
	var b strings.Builder
	dash := false
	for _, r := range strings.ToLower(s) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_' || r == '.' {
			if dash && b.Len() > 0 {
				b.WriteByte('-')
			}
			b.WriteRune(r)
			dash = false
			continue
		}
		dash = true
	}
	return b.String()
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile.
const tailMinBeyond = 10

// tailStat is the highest whole percentile (50..99) of a sample with at
// least tailMinBeyond samples beyond it, by the nearest-rank method.
type tailStat struct {
	Percentile int     `json:"percentile"` // e.g. 90 for p90
	Value      float64 `json:"value"`      // the nearest-rank sample at that percentile
	Beyond     int     `json:"beyond"`     // samples ranked above it
	N          int     `json:"samples"`
}

// tail selects the highest percentile p in [50, 99] whose nearest-rank
// sample (rank ceil(p*n/100)) has at least tailMinBeyond samples ranked
// above it. ok is false when even p50 leaves fewer than that, i.e. when the
// sample is too small (under 20) to support a tail.
func tail(xs []float64) (t tailStat, ok bool) {
	n := len(xs)
	s := sortedCopy(xs)
	for p := 99; p >= 50; p-- {
		rank := (p*n + 99) / 100 // ceil(p*n/100)
		if rank < 1 {
			rank = 1
		}
		if n-rank >= tailMinBeyond {
			return tailStat{Percentile: p, Value: s[rank-1], Beyond: n - rank, N: n}, true
		}
	}
	return tailStat{N: n}, false
}

// quartilesMS returns the first quartile, median and third quartile of
// xs, given in seconds, in milliseconds.
func quartilesMS(xs []float64) [3]float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return [3]float64{}
	}
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1] * 1e3
		}
		return (s[i] + (pos-float64(i))*(s[i+1]-s[i])) * 1e3
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}
