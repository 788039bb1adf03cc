// Command perfbench is the repository benchmark: it drives the AITIA
// diagnosis pipeline and the diagnosis service through their public
// entry points under one of two closed-loop workloads, checks every
// answer against a reference chain, and prints end-to-end metrics (or,
// with --trace 1, per-layer metrics) ending in one JSON line. See
// README.md for the workloads, the metrics and how to compare two
// commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is the command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // directory for data dirs, traces and result records
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*measurement, error){
	"stress-parallel": runStress,
	"service":         runService,
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload: stress-parallel or service")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	flag.IntVar(&c.seconds, "seconds", 50, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&c.out, "out", ".bench_build", "directory for temporary data, traces and result records")
	flag.Parse()
	c.trace = trace == 1
	run, ok := workloads[c.workload]
	if !ok || c.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", c.workload, c.seconds, trace)
		os.Exit(2)
	}
	m, err := run(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", c.workload, err)
		os.Exit(1)
	}
	if err := report(c, m); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if m.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d answers failed or mismatched their reference\n", m.failed, m.attempted)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints the human-readable lines, writes the full record under
// c.out/results, and prints the JSON line last.
func report(c config, m *measurement) error {
	ctx := m.context(c)
	fmt.Printf("context workload=%s seed=%d seconds=%d trace=%t nproc=%d gomaxprocs=%d go=%s data_fs=%s\n",
		c.workload, c.seed, c.seconds, c.trace, ctx.NProc, ctx.GOMAXPROCS, ctx.GoVersion, ctx.DataFS)
	res := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	var lines []line
	if c.trace {
		lines = m.layers
	} else {
		lines = m.e2eLines()
	}
	for _, l := range lines {
		fmt.Println(l.String())
		if l.gated {
			res.Metrics[l.name] = metric{Value: l.value, Unit: l.unit}
		}
	}
	fmt.Printf("error_rate value=%g unit=ratio samples=%d (failed %d of %d attempted)\n",
		ratio(float64(m.failed), float64(m.attempted)), m.attempted, m.failed, m.attempted)
	for _, n := range m.notes {
		fmt.Println(n)
	}
	if err := writeRecord(c, ctx, lines, res); err != nil {
		return err
	}
	js, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(js))
	return nil
}

// line is one printed metric. Gated lines are the ones BENCHMARK.json
// names; the rest apply to one workload only and are printed for the
// reader.
type line struct {
	name    string
	value   float64
	unit    string
	samples int
	windows int     // windows the figure is the median over, 0 for none
	pct     float64 // percentile of a tail figure, 0 otherwise
	gated   bool
}

func (l line) String() string {
	s := fmt.Sprintf("%s value=%g unit=%s samples=%d", l.name, l.value, l.unit, l.samples)
	if l.windows > 0 {
		s += fmt.Sprintf(" windows=%d", l.windows)
	}
	if l.pct > 0 {
		s += fmt.Sprintf(" percentile=p%g", l.pct)
	}
	return s
}

// runContext is the measurement context stored with every result.
type runContext struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	DataFS     string `json:"data_fs"`
}

func (m *measurement) context(c config) runContext {
	fs := m.dataFS
	if fs == "" {
		fs = "none"
	}
	return runContext{
		Workload: c.workload, Seed: c.seed, Seconds: c.seconds, Trace: c.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		DataFS: fs,
	}
}

// writeRecord stores the run's context, every printed metric with its
// sample count, and the JSON result under c.out/results.
func writeRecord(c config, ctx runContext, lines []line, res result) error {
	dir := filepath.Join(c.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type rec struct {
		Name       string  `json:"name"`
		Value      float64 `json:"value"`
		Unit       string  `json:"unit"`
		Samples    int     `json:"samples"`
		Windows    int     `json:"windows,omitempty"`
		Percentile float64 `json:"percentile,omitempty"`
	}
	var recs []rec
	for _, l := range lines {
		recs = append(recs, rec{l.name, l.value, l.unit, l.samples, l.windows, l.pct})
	}
	js, err := json.MarshalIndent(struct {
		Context runContext `json:"context"`
		Metrics []rec      `json:"metrics"`
		Result  result     `json:"result"`
	}{ctx, recs, res}, "", "  ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if c.trace {
		mode = "trace"
	}
	name := fmt.Sprintf("%s-seed%d-%s.json", c.workload, c.seed, mode)
	return os.WriteFile(filepath.Join(dir, name), append(js, '\n'), 0o644)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedKeys returns a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
