package main

import (
	"math"
	"sort"
	"time"

	"aitia/internal/obs"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	return s[max(rank, 1)-1]
}

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

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLadder lists the percentiles a tail figure may take, highest first.
// The tail is taken per tail window (see windowTail), whose fixed size
// fixes the step for a workload: windows of 200 samples (service) give
// p90, windows of 40 (stress) p75.
var tailLadder = []float64{99, 90, 75, 50}

// minBeyond is how many samples must lie strictly above a tail
// percentile's rank for the percentile to be reported.
const minBeyond = 10

// tail is the highest percentile of a sample set that keeps at least
// minBeyond samples beyond it.
type tail struct {
	Percentile float64 // e.g. 99; 0 when there are too few samples
	Value      float64
	Samples    int // size of the whole sample set
}

// tailPercentile picks the highest percentile on tailLadder whose
// nearest-rank position leaves at least minBeyond samples above it, and
// returns its value. With fewer than 2*minBeyond samples no ladder step
// qualifies, and the maximum is returned with Percentile 100.
func tailPercentile(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sortedCopy(xs)
	for _, p := range tailLadder {
		// 1-based nearest rank; the epsilon keeps p99 of 1000 at 990
		rank := max(int(math.Ceil(p*float64(n)/100-1e-9)), 1)
		if n-rank >= minBeyond {
			return tail{Percentile: p, Value: s[rank-1], Samples: n}
		}
	}
	return tail{Percentile: 100, Value: s[n-1], Samples: n}
}

// selfTimes returns, per "cat.name", the summed self time of the spans:
// a span's duration minus the part of its interval covered by its
// children. A span's parent is the shortest other span whose interval
// contains it (ties go to the earlier one in the slice). Spans carry no
// parent links, and parallel workers put overlapping spans on separate
// tracks, so nesting is inferred from intervals across all tracks.
func selfTimes(events []obs.Event) map[string]time.Duration {
	n := len(events)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Longest-first among equal starts, so a parent precedes the
	// children that share its start.
	sort.SliceStable(order, func(a, b int) bool {
		ea, eb := events[order[a]], events[order[b]]
		if ea.Start != eb.Start {
			return ea.Start < eb.Start
		}
		return ea.Dur > eb.Dur
	})
	children := make([][]int, n)
	for pos, i := range order {
		e := events[i]
		parent := -1
		for _, j := range order[:pos] {
			c := events[j]
			if c.Start <= e.Start && c.Start+c.Dur >= e.Start+e.Dur &&
				(parent < 0 || c.Dur < events[parent].Dur) {
				parent = j
			}
		}
		if parent >= 0 {
			children[parent] = append(children[parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, e := range events {
		self := e.Dur - covered(events, children[i])
		if self < 0 {
			self = 0
		}
		out[e.Cat+"."+e.Name] += self
	}
	return out
}

// covered is the length of the union of the given spans' intervals.
func covered(events []obs.Event, idx []int) time.Duration {
	if len(idx) == 0 {
		return 0
	}
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, len(idx))
	for k, i := range idx {
		ivs[k] = iv{events[i].Start, events[i].Start + events[i].Dur}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total time.Duration
	cur := ivs[0]
	for _, v := range ivs[1:] {
		if v.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = v
			continue
		}
		if v.hi > cur.hi {
			cur.hi = v.hi
		}
	}
	return total + cur.hi - cur.lo
}

// windows cuts a measured phase into windows of a fixed number of
// answers. Throughput, CPU per answer and median latency are the median
// window's. The host lends the process its CPUs with spells of steal a
// few seconds long; a spell moves the windows it overlaps, not the
// median window.
type windows struct {
	size int      // answers per window
	open window   // the window being filled, its start offsets
	done []window // closed windows
}

type window struct {
	n         int           // answers
	wall, cpu time.Duration // used by the window (offsets while open)
	blindMS   []float64     // latencies of the blind diagnoses among the answers
}

// blind records the latency of a blind diagnosis; the answer itself is
// then counted with answered.
func (w *windows) blind(ms float64) {
	w.open.blindMS = append(w.open.blindMS, ms)
}

// answered counts one answer completed at the given wall and CPU
// offsets from the phase start.
func (w *windows) answered(wall, cpu time.Duration) {
	w.open.n++
	if w.open.n >= w.size {
		w.close(wall, cpu)
	}
}

func (w *windows) close(wall, cpu time.Duration) {
	o := w.open
	w.done = append(w.done, window{n: o.n, wall: wall - o.wall, cpu: cpu - o.cpu, blindMS: o.blindMS})
	w.open = window{wall: wall, cpu: cpu}
}

// start opens a new window at the given offsets, dropping the answers
// of a partial one.
func (w *windows) start(wall, cpu time.Duration) {
	w.open = window{wall: wall, cpu: cpu}
}

// end closes the phase at the given offsets. The last partial window
// is dropped, unless no window filled, when the phase counts as one.
func (w *windows) end(wall, cpu time.Duration) {
	if len(w.done) == 0 && w.open.n > 0 {
		w.close(wall, cpu)
	}
	w.open = window{wall: wall, cpu: cpu}
}

// median is the median over windows of f, skipping windows f declines.
func (w *windows) median(f func(window) (float64, bool)) float64 {
	var xs []float64
	for _, d := range w.done {
		if x, ok := f(d); ok {
			xs = append(xs, x)
		}
	}
	return median(xs)
}

// rate is the median window's answers per second of wall time.
func (w *windows) rate() float64 {
	return w.median(func(d window) (float64, bool) { return ratio(float64(d.n), d.wall.Seconds()), true })
}

// cpuPer is the median window's CPU time per answer, in ms.
func (w *windows) cpuPer() float64 {
	return w.median(func(d window) (float64, bool) { return ratio(ms(d.cpu), float64(d.n)), true })
}

// p50 is the median over windows holding blind diagnoses of their
// median latency, in ms; blindWindows counts those windows.
func (w *windows) p50() float64 {
	return w.median(func(d window) (float64, bool) { return median(d.blindMS), len(d.blindMS) > 0 })
}

func (w *windows) blindWindows() int {
	n := 0
	for _, d := range w.done {
		if len(d.blindMS) > 0 {
			n++
		}
	}
	return n
}

// windowTail cuts xs, in completion order, into windows of size samples
// and returns the median over windows of each window's tail (see
// tailPercentile) and the number of windows. The last partial window is
// dropped; a set too small for one window is one window, and so is
// every set when size is not positive. As the tail rule depends only on
// the sample count, a fixed window size fixes the percentile, and a
// slow spell of the host moves the windows it overlaps, where a
// percentile of all samples pooled would take its tail from the spell
// alone.
func windowTail(xs []float64, size int) (tail, int) {
	var chunks [][]float64
	for lo := 0; size > 0 && lo+size <= len(xs); lo += size {
		chunks = append(chunks, xs[lo:lo+size])
	}
	if len(chunks) == 0 && len(xs) > 0 {
		chunks = [][]float64{xs}
	}
	var vals []float64
	var pct float64
	for _, c := range chunks {
		t := tailPercentile(c)
		vals, pct = append(vals, t.Value), t.Percentile
	}
	return tail{Percentile: pct, Value: median(vals), Samples: len(xs)}, len(chunks)
}
