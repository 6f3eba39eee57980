package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail read off fewer samples is noise.
const minBeyond = 10

// Dist is a sample of one timing, kept in milliseconds in the order
// the samples were added.
type Dist struct {
	vals   []float64
	sorted []float64 // vals in ascending order; nil when stale
}

// Add records one duration.
func (d *Dist) Add(v time.Duration) { d.AddMS(float64(v) / float64(time.Millisecond)) }

// AddMS records one value already in milliseconds.
func (d *Dist) AddMS(v float64) {
	d.vals = append(d.vals, v)
	d.sorted = nil
}

// Merge appends every sample of o.
func (d *Dist) Merge(o *Dist) {
	d.vals = append(d.vals, o.vals...)
	d.sorted = nil
}

// N is the sample count.
func (d *Dist) N() int { return len(d.vals) }

// Quantile returns the nearest-rank q-quantile: the smallest sample
// with at least q·n samples at or below it. q=0 gives the minimum; an
// empty sample gives 0.
func (d *Dist) Quantile(q float64) float64 {
	if len(d.vals) == 0 {
		return 0
	}
	if d.sorted == nil {
		d.sorted = append([]float64(nil), d.vals...)
		sort.Float64s(d.sorted)
	}
	return d.sorted[nearestRank(q, len(d.sorted))-1]
}

// nearestRank is the 1-based rank of the q-quantile among n samples.
// The epsilon keeps q·n that is integral in decimal (0.99·1000) from
// rounding up past itself in binary.
func nearestRank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// TailQuantile applies the reporting rule for tails: the highest
// quantile no higher than want that still has at least minBeyond
// samples above it. ok is false when even the median has fewer than
// minBeyond samples above it, so no tail can be reported.
func TailQuantile(want float64, n int) (q float64, ok bool) {
	if n < 2*minBeyond {
		return 0, false
	}
	q = want
	if lim := float64(n-minBeyond) / float64(n); q > lim {
		q = lim
	}
	return q, true
}

// Tail reports d's tail under TailQuantile, with the quantile it used.
func (d *Dist) Tail(want float64) (v, q float64, ok bool) {
	q, ok = TailQuantile(want, d.N())
	if !ok {
		return 0, 0, false
	}
	return d.Quantile(q), q, true
}

// WindowSize is the smallest window whose want-quantile still has
// minBeyond samples above it: 100 for a p90, 1000 for a p99.
func WindowSize(want float64) int {
	return int(math.Ceil(minBeyond/(1-want) - 1e-9))
}

// Windows cuts d, in the order its samples were added, into as many
// consecutive windows of at least size samples as it holds; the cuts
// spread the remainder over the windows. A sample smaller than size
// gives none.
func (d *Dist) Windows(size int) []*Dist {
	n := len(d.vals)
	k := n / size
	out := make([]*Dist, k)
	for i := range out {
		out[i] = &Dist{vals: d.vals[i*n/k : (i+1)*n/k]}
	}
	return out
}

// WindowMedian is the median, over d's windows of size samples, of each
// window's q-quantile, with the number of windows.
func (d *Dist) WindowMedian(q float64, size int) (v float64, windows int) {
	var per Dist
	ws := d.Windows(size)
	for _, w := range ws {
		per.AddMS(w.Quantile(q))
	}
	return per.Quantile(0.5), len(ws)
}

// median of a small set of durations (set-up repetitions), in seconds.
func medianSeconds(ds []time.Duration) float64 {
	var d Dist
	for _, v := range ds {
		d.Add(v)
	}
	return d.Quantile(0.5) / 1e3
}

// pct renders a quantile as a percentile label: 0.99 → "p99",
// 0.9375 → "p93.75".
func pct(q float64) string {
	return "p" + trimFloat(q*100)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	for s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}
