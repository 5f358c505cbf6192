package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// dist is a set of timing samples reported as a median plus the highest
// percentile that still has at least ten samples beyond it.
type dist []float64

func (d dist) sorted() []float64 {
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile (q in [0,1]) of the samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func (d dist) median() float64 { return quantile(d.sorted(), 0.5) }

// tail returns the highest of p99.9, p99, p95, p90 and p50 that leaves at
// least ten samples beyond it, with that percentile's label.
func (d dist) tail() (float64, string) {
	s := d.sorted()
	for _, p := range []float64{99.9, 99, 95, 90, 50} {
		if float64(len(s))*(1-p/100) >= 10 {
			return quantile(s, p/100), fmt.Sprintf("p%g", p)
		}
	}
	return quantile(s, 0.5), "p50"
}

// describe renders a timing as "median / tail (n=...)".
func (d dist) describe(unit string) string {
	if len(d) == 0 {
		return "n/a (no samples)"
	}
	t, label := d.tail()
	if label == "p50" {
		return fmt.Sprintf("p50 %.4g %s (n=%d, too few samples for a tail percentile)", d.median(), unit, len(d))
	}
	return fmt.Sprintf("p50 %.4g %s, %s %.4g %s (n=%d)", d.median(), unit, label, t, unit, len(d))
}

// printTiming prints a timing under its two metric names, <base>_p50_ms
// and <base>_p99_ms, with the sample count. When p99 leaves fewer than ten
// samples beyond it, the highest percentile that does is printed with it.
func printTiming(base string, d dist) {
	if len(d) == 0 {
		say("  %-22s n/a (no samples)", base+"_p50_ms")
		say("  %-22s n/a (no samples)", base+"_p99_ms")
		return
	}
	s := d.sorted()
	say("  %-22s %.4g ms (n=%d)", base+"_p50_ms", quantile(s, 0.5), len(s))
	beyond := len(s) - int(math.Ceil(0.99*float64(len(s))))
	line := fmt.Sprintf("  %-22s %.4g ms (n=%d, %d samples beyond)", base+"_p99_ms", quantile(s, 0.99), len(s), beyond)
	if beyond < 10 {
		t, label := d.tail()
		line += fmt.Sprintf("; too few for a p99, %s %.4g ms", label, t)
	}
	say("%s", line)
}

// buckets accumulates per-second totals over a timed phase, so a rate can
// be reported as the median over whole seconds: transient host noise moves
// that far less than the mean over the run.
type buckets struct {
	start    time.Time
	num, den []float64
}

func newBuckets(start time.Time) *buckets { return &buckets{start: start} }

// add credits num (work done) and den (seconds spent) to the second that
// at falls in.
func (b *buckets) add(at time.Time, num, den float64) {
	i := int(at.Sub(b.start) / time.Second)
	for len(b.num) <= i {
		b.num, b.den = append(b.num, 0), append(b.den, 0)
	}
	b.num[i] += num
	b.den[i] += den
}

// rate is the median of num/den over the whole seconds up to end (a
// trailing partial second is dropped).
func (b *buckets) rate(end time.Time) float64 {
	var r dist
	for i := 0; i < int(end.Sub(b.start)/time.Second); i++ {
		if i < len(b.num) && b.den[i] > 0 {
			r = append(r, b.num[i]/b.den[i])
		}
	}
	return r.median()
}

// perSecond is the median of num over the whole seconds up to end.
func (b *buckets) perSecond(end time.Time) float64 {
	var r dist
	for i := 0; i < int(end.Sub(b.start)/time.Second); i++ {
		v := 0.0
		if i < len(b.num) {
			v = b.num[i]
		}
		r = append(r, v)
	}
	return r.median()
}
