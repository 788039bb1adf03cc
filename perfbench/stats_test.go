package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"aitia/internal/obs"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..n
	}
	return xs
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
	}{
		{5, 100},     // too few for any ladder step: the maximum
		{19, 100},    // p50 would leave 9 beyond
		{20, 50},     // p50 at rank 10 leaves exactly 10
		{39, 50},     // p75 at rank 30 leaves 9
		{40, 75},     // p75 at rank 30 leaves 10
		{99, 75},     // p90 at rank 90 leaves 9
		{100, 90},    // p90 at rank 90 leaves 10
		{999, 90},    // p99 at rank 990 leaves 9
		{1000, 99},   // p99 at rank 990 leaves 10
		{100000, 99}, // p99 is the top step
	} {
		got := tailPercentile(seq(tc.n))
		if got.Percentile != tc.wantPct || got.Samples != tc.n {
			t.Errorf("n=%d: percentile p%g over %d samples, want p%g", tc.n, got.Percentile, got.Samples, tc.wantPct)
			continue
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > got.Value {
				beyond++
			}
		}
		if tc.wantPct < 100 && beyond < minBeyond {
			t.Errorf("n=%d: p%g = %g leaves %d samples beyond, want >= %d", tc.n, got.Percentile, got.Value, beyond, minBeyond)
		}
	}
	if got := tailPercentile(nil); got.Samples != 0 || got.Value != 0 {
		t.Errorf("no samples: got %+v", got)
	}
}

func TestTailPercentileIgnoresOrder(t *testing.T) {
	xs := []float64{5, 3, 9, 1, 7, 2, 8, 4, 6, 10, 15, 12, 11, 14, 13, 20, 17, 19, 16, 18, 21}
	got := tailPercentile(xs)
	if got.Percentile != 50 || got.Value != 11 {
		t.Errorf("got p%g = %g, want p50 = 11", got.Percentile, got.Value)
	}
}

func TestWindowsTakeTheMedianWindow(t *testing.T) {
	w := windows{size: 2}
	// Five windows of two answers; the third is a slow spell.
	var wall, cpu time.Duration
	for _, step := range []time.Duration{1, 1, 1, 1, 10, 10, 1, 1, 2, 2, 3} {
		wall += step * time.Millisecond
		cpu += step * time.Millisecond / 2
		w.blind(float64(step))
		w.answered(wall, cpu)
	}
	w.end(wall+time.Millisecond, cpu)
	if len(w.done) != 5 {
		t.Fatalf("%d windows, want 5 (the partial sixth dropped)", len(w.done))
	}
	if got := w.rate(); got != 1000 {
		t.Errorf("rate = %g/s, want 1000 (two answers in 2 ms)", got)
	}
	if got := w.cpuPer(); got != 0.5 {
		t.Errorf("cpuPer = %g ms, want 0.5", got)
	}
	if got := w.p50(); got != 1 || w.blindWindows() != 5 {
		t.Errorf("p50 = %g ms over %d windows, want 1 over 5", got, w.blindWindows())
	}

	short := windows{size: 100}
	short.answered(3*time.Millisecond, time.Millisecond)
	short.answered(4*time.Millisecond, 2*time.Millisecond)
	short.end(5*time.Millisecond, 2*time.Millisecond)
	if got := short.rate(); len(short.done) != 1 || got != 400 {
		t.Errorf("a phase shorter than one window: %d windows, rate %g/s, want 1 window at 400/s", len(short.done), got)
	}
	if short.blindWindows() != 0 || short.p50() != 0 {
		t.Errorf("no blind answers: p50 %g over %d windows, want 0 over 0", short.p50(), short.blindWindows())
	}

	restart := windows{size: 2}
	restart.answered(time.Millisecond, 0)
	restart.start(5*time.Millisecond, 0) // drops the partial window
	restart.answered(6*time.Millisecond, 0)
	restart.answered(7*time.Millisecond, 0)
	if got := restart.rate(); len(restart.done) != 1 || got != 1000 {
		t.Errorf("after start: %d windows, rate %g/s, want 1 window at 1000/s", len(restart.done), got)
	}
}

func TestWindowTail(t *testing.T) {
	// Three windows of 40 samples; the middle one is three times slower.
	var xs []float64
	for _, scale := range []float64{1, 3, 1} {
		for _, x := range seq(40) {
			xs = append(xs, scale*x)
		}
	}
	xs = append(xs, 1000, 1000) // a partial window, dropped
	got, n := windowTail(xs, 40)
	if n != 3 || got.Percentile != 75 || got.Value != 30 || got.Samples != len(xs) {
		t.Errorf("tail %+v over %d windows, want p75 = 30 over 3 windows and %d samples", got, n, len(xs))
	}

	few, n := windowTail(seq(25), 40)
	if n != 1 || few.Percentile != 50 || few.Value != 13 {
		t.Errorf("fewer samples than a window: %+v over %d windows, want one window, p50 = 13", few, n)
	}
	if all, n := windowTail(seq(25), 0); n != 1 || all.Value != 13 {
		t.Errorf("window size 0: %+v over %d windows, want the whole set as one window", all, n)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func ev(cat, name string, start, dur int) obs.Event {
	return obs.Event{Cat: cat, Name: name, Start: time.Duration(start) * time.Millisecond, Dur: time.Duration(dur) * time.Millisecond}
}

func TestSelfTimesSubtractsChildren(t *testing.T) {
	events := []obs.Event{
		ev("lifs", "search", 0, 100),
		ev("lifs", "phase", 10, 40),
		ev("lifs", "task", 12, 10),
		ev("lifs", "task", 25, 10),
		ev("lifs", "phase", 60, 30),
		ev("ca", "analyze", 100, 50), // sibling, not a child: starts at the search's end
		ev("ca", "flip", 110, 20),
	}
	got := selfTimes(events)
	want := map[string]time.Duration{
		"lifs.search": 30 * time.Millisecond, // 100 - 40 - 30
		"lifs.phase":  50 * time.Millisecond, // (40 - 20) + 30
		"lifs.task":   20 * time.Millisecond,
		"ca.analyze":  30 * time.Millisecond,
		"ca.flip":     20 * time.Millisecond,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSelfTimesOverlappingChildrenCountOnce(t *testing.T) {
	// Two parallel workers' spans overlap inside one parent: the parent
	// loses the union of their intervals, not the sum.
	events := []obs.Event{
		ev("ca", "analyze", 0, 100),
		ev("ca", "flip", 10, 50),
		ev("ca", "flip", 30, 50),
	}
	got := selfTimes(events)
	if got["ca.analyze"] != 30*time.Millisecond {
		t.Errorf("analyze self = %v, want 30ms", got["ca.analyze"])
	}
	if got["ca.flip"] != 100*time.Millisecond {
		t.Errorf("flip self = %v, want 100ms", got["ca.flip"])
	}
}

func TestSelfTimesInnermostParent(t *testing.T) {
	// A span equal in extent to its parent: the later (shorter or equal)
	// one nests inside the earlier, so the grandparent is charged once.
	events := []obs.Event{
		ev("job", "run", 0, 100),
		ev("manager", "diagnose", 0, 90),
		ev("lifs", "search", 5, 80),
	}
	got := selfTimes(events)
	want := map[string]time.Duration{
		"job.run":          10 * time.Millisecond,
		"manager.diagnose": 10 * time.Millisecond,
		"lifs.search":      80 * time.Millisecond,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestParseChromeRoundTrip(t *testing.T) {
	tr := obs.New()
	tr.Emit(ev("job", "run", 0, 100))
	tr.Emit(ev("lifs", "search", 10, 50))
	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChrome(b.Bytes()); err != nil {
		t.Fatal(err)
	}
	got, err := parseChrome(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	self := selfTimes(got)
	if self["job.run"] != 50*time.Millisecond || self["lifs.search"] != 50*time.Millisecond {
		t.Errorf("self times from the Chrome round trip = %v", self)
	}
}

// TestBenchmarkJSONNamesMetrics checks that BENCHMARK.json lists exactly
// the gated metrics the benchmark prints, with the same units.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	gated := func(lines []line) [][2]string {
		var out [][2]string
		for _, l := range lines {
			if l.gated {
				out = append(out, [2]string{l.name, l.unit})
			}
		}
		return out
	}
	listed := func(ms []struct{ Name, Unit string }) [][2]string {
		var out [][2]string
		for _, m := range ms {
			out = append(out, [2]string{m.Name, m.Unit})
		}
		return out
	}
	m := &measurement{}
	if got, want := listed(spec.EndToEnd), gated(m.e2eLines()); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json end_to_end = %v, benchmark prints %v", got, want)
	}
	if got, want := listed(spec.PerLayer), gated(perLayer(layerInputs{})); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer = %v, benchmark prints %v", got, want)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
}
