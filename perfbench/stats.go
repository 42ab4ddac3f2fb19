package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: with fewer, the value is one or two outliers, not a
// tail.
const minTail = 10

// tailQuantile is the highest of the candidate quantiles that has at least
// minTail of n samples beyond it, or 0 when even the median has fewer.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9, 0.5} {
		// Samples above the nearest-rank quantile; the epsilon keeps
		// 0.9*100 from rounding up past 90.
		if n-int(math.Ceil(q*float64(n)-1e-9)) >= minTail {
			return q
		}
	}
	return 0
}

// quantile returns the nearest-rank q-quantile of sorted (ascending).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// dist summarises a latency sample: its median, 90th and 99th percentiles
// and the sample count behind them. P99 is valid only when Tail (the
// highest percentile the count supports) is at least 0.99.
type dist struct {
	N             int
	P50, P90, P99 time.Duration
	Tail          float64
}

func summarize(samples []time.Duration) dist {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return dist{N: len(s), P50: quantile(s, 0.5), P90: quantile(s, 0.9), P99: quantile(s, 0.99), Tail: tailQuantile(len(s))}
}

// p99OK reports whether the sample is large enough for its p99.
func (d dist) p99OK() bool { return d.Tail >= 0.99 }

// p90OK reports whether the sample is large enough for its p90.
func (d dist) p90OK() bool { return d.Tail >= 0.9 }

func (d dist) String() string {
	return fmt.Sprintf("p50=%s p90=%s p99=%s n=%d (highest supported percentile p%g)",
		d.P50, d.P90, d.P99, d.N, 100*d.Tail)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a share that keeps its base: Num out of Den.
type ratio struct {
	Num, Den float64
}

// Value is Num/Den, or 0 for an empty base.
func (r ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.6g (%g of %g)", r.Value(), r.Num, r.Den)
}

// arrival is one open-loop arrival as the dispatcher saw it.
type arrival struct {
	Due      time.Time // when the schedule said to send it
	Sent     time.Time // when the dispatcher called into the program
	Done     time.Time // when it completed; zero if refused or failed
	Refused  bool
	Failed   bool
	InFlight int // admitted and not yet finished, just before Sent
}

// dueLatency is how long an arrival took measured from when it was due, so
// a stalled dispatcher charges its delay to every request it held back.
func (a arrival) dueLatency() time.Duration { return a.Done.Sub(a.Due) }

// lateness is how far behind the schedule the dispatcher sent it.
func (a arrival) lateness() time.Duration { return a.Sent.Sub(a.Due) }

// sloResult is one ladder step judged against a latency limit.
type sloResult struct {
	P99     time.Duration // from the due time, refused or failed arrivals counting as misses
	Misses  ratio         // arrivals over the limit, refused or failed, of those offered
	Backlog bool          // the in-flight population grew through the step
	Met     bool
}

// judgeStep decides whether a ladder step met the limit: its p99 from the
// due time, with every refused or failed arrival counted as a miss, is
// within limit, and the backlog did not grow.
func judgeStep(arrivals []arrival, limit time.Duration) sloResult {
	lat := make([]time.Duration, 0, len(arrivals))
	var res sloResult
	inflight := make([]int, 0, len(arrivals))
	for _, a := range arrivals {
		inflight = append(inflight, a.InFlight)
		d := time.Duration(math.MaxInt64)
		if !a.Refused && !a.Failed && !a.Done.IsZero() {
			d = a.dueLatency()
		}
		if d > limit {
			res.Misses.Num++
		}
		lat = append(lat, d)
	}
	res.Misses.Den = float64(len(arrivals))
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.P99 = quantile(lat, 0.99)
	res.Backlog = backlogGrowing(inflight)
	res.Met = len(arrivals) > 0 && res.P99 <= limit && !res.Backlog
	return res
}

// backlogGrowing reports whether the in-flight counts seen at successive
// arrivals trend upward: the median over the last quarter exceeds the median
// over the first quarter by more than half, plus two actions of slack so
// that a population of one or two does not count as growth. Medians keep a
// single short stall, which piles arrivals up for a moment, from reading as
// a backlog that grows.
func backlogGrowing(inflight []int) bool {
	n := len(inflight) / 4
	if n == 0 {
		return false
	}
	med := func(xs []int) float64 {
		fs := make([]float64, len(xs))
		for i, x := range xs {
			fs[i] = float64(x)
		}
		return median(fs)
	}
	first, last := med(inflight[:n]), med(inflight[len(inflight)-n:])
	return last > 1.5*first+2
}

// quantileOf is the q-quantile of a small float sample, interpolated
// linearly between order statistics (0 for none).
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// Interference from outside the program, such as another machine's work on
// a shared host, only ever slows it. A run's figure is therefore taken from
// the best quartile of its windows: the lower quartile of times, the upper
// quartile of rates. A change to the program moves every window, the best
// ones too; a neighbour busy for most of a run but not all of it does not
// move the figure.
func bestTime(xs []float64) float64 { return quantileOf(xs, 0.25) }
func bestRate(xs []float64) float64 { return quantileOf(xs, 0.75) }

// hist is a log-linear latency histogram with room for any duration up to
// about half an hour: durations below 64 ns have a bucket each, and every
// power of two above is split into 64 buckets, so a bucket spans at most
// 1/64 (1.6%) of its lower bound. Its size is fixed, so a closed loop's
// bookkeeping does not grow with the actions a run gets through, and it is
// safe for concurrent adds.
type hist struct {
	counts [histBuckets]atomic.Uint32
	n      atomic.Int64
}

const (
	histSub     = 64 // buckets per power of two
	histBuckets = histSub + 35*histSub
)

// histIndex is the bucket d falls in.
func histIndex(d time.Duration) int {
	v := uint64(max(d, 0))
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 7 // v>>e lies in [64, 128)
	return min(histSub+e*histSub+int(v>>e)-histSub, histBuckets-1)
}

// histBounds is the range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi time.Duration) {
	if i < histSub {
		return time.Duration(i), time.Duration(i + 1)
	}
	e := (i - histSub) / histSub
	m := uint64(histSub + (i-histSub)%histSub)
	return time.Duration(m << e), time.Duration((m + 1) << e)
}

func (h *hist) add(d time.Duration) {
	h.counts[histIndex(d)].Add(1)
	h.n.Add(1)
}

// quantile is the nearest-rank q-quantile, placed inside its bucket by
// interpolating between the bucket's bounds on the rank.
func (h *hist) quantile(q float64) time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(n))), 1)
	var below int64
	for i := range h.counts {
		c := int64(h.counts[i].Load())
		if below+c >= rank {
			lo, hi := histBounds(i)
			return lo + time.Duration(float64(hi-lo)*(float64(rank-below)-0.5)/float64(c))
		}
		below += c
	}
	_, hi := histBounds(histBuckets - 1)
	return hi
}

// dist summarises the histogram as summarize does a sample.
func (h *hist) dist() dist {
	n := int(h.n.Load())
	return dist{N: n, P50: h.quantile(0.5), P90: h.quantile(0.9), P99: h.quantile(0.99), Tail: tailQuantile(n)}
}
