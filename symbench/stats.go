package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile: fewer and the figure is one or two unlucky samples.
const tailBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 75, 50}

// tail is a percentile reported by the tail rule, with the sample
// count it was taken from.
type tail struct {
	Pct   float64
	Value float64
	N     int
}

func (t tail) String() string {
	return fmt.Sprintf("p%g=%.4g of %d", t.Pct, t.Value, t.N)
}

// tailOf reports the highest percentile of the ladder that has at
// least tailBeyond samples strictly beyond it (nearest-rank), together
// with the sample count. ok is false when no ladder percentile
// qualifies (fewer than 20 samples).
func tailOf(xs []float64) (t tail, ok bool) {
	n := len(xs)
	s := sortedCopy(xs)
	for _, p := range tailLadder {
		// The epsilon keeps float error (0.999*10000 = 9990.000000000002)
		// from bumping an exact rank up by one.
		rank := int(math.Ceil(p/100*float64(n) - 1e-9))
		if rank < 1 || n-rank < tailBeyond {
			continue
		}
		return tail{Pct: p, Value: s[rank-1], N: n}, true
	}
	return tail{N: n}, false
}

// median is the middle sample (mean of the two middle ones for an
// even count); NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metricName is the charset and length BENCHMARK.json allows a metric
// name.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's reported figures by name.
type metrics map[string]metric

// set records a figure, refusing names outside the allowed charset and
// values that are not finite numbers.
func (m metrics) set(name, unit string, v float64) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q: want letters, digits, '_', '.', '-'", name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s: not a finite number (%v)", name, v)
	}
	m[name] = metric{Value: v, Unit: unit}
	return nil
}

// request is one open-loop request's timeline: when the schedule made
// it due, when the generator sent it and when its response completed.
type request struct {
	Due, Sent, Done time.Time
}

// openLoopTimes splits one connection's requests, in send order, into
// the two figures an open loop reports. Latency runs from due to done,
// so a request that waited behind a slow predecessor carries that wait
// (no coordinated omission). Lag is how late the generator itself
// sent: from the moment the request could have gone — due, or the
// connection freeing up, whichever is later — to the send.
func openLoopTimes(reqs []request) (latency, lag []time.Duration) {
	latency = make([]time.Duration, len(reqs))
	lag = make([]time.Duration, len(reqs))
	var free time.Time
	for i, r := range reqs {
		latency[i] = r.Done.Sub(r.Due)
		ready := r.Due
		if free.After(ready) {
			ready = free
		}
		if l := r.Sent.Sub(ready); l > 0 {
			lag[i] = l
		}
		free = r.Done
	}
	return latency, lag
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
