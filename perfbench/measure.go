package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"aitia"
	"aitia/internal/obs"
)

// measurement is what one workload run produced.
type measurement struct {
	attempted int // answers requested in measured phases
	failed    int // errors, non-2xx, 429 and chain mismatches

	blindMS  []float64 // blind diagnoses that ran the pipeline, in completion order
	tailSize int       // blind samples per tail window
	reportMS []float64 // report-driven diagnoses that ran the pipeline (service)
	hitMS    []float64 // cache-hit round trips (service)
	setupS   []float64 // repeated set-up times
	answers  int       // correct answers in measured phases
	win      windows   // windows of the untraced measured phase
	rssMB    []float64 // resident-set samples of the measured phases
	dataFS   string    // filesystem type of the service data dir

	layers []line   // per-layer metrics (traced runs)
	notes  []string // extra context lines
}

// e2eLines are the end-to-end metrics. The gated ones apply to every
// workload; report and hit latency exist only where a service answers.
func (m *measurement) e2eLines() []line {
	tl, tailWindows := windowTail(m.blindMS, m.tailSize)
	out := []line{
		{name: "setup_s", value: median(m.setupS), unit: "s", samples: len(m.setupS), gated: true},
		{name: "diagnoses_per_s", value: m.win.rate(), unit: "1/s", samples: m.answers, windows: len(m.win.done), gated: true},
		{name: "latency_p50_ms", value: m.win.p50(), unit: "ms", samples: len(m.blindMS), windows: m.win.blindWindows(), gated: true},
		{name: "latency_tail_ms", value: tl.Value, unit: "ms", samples: tl.Samples, windows: tailWindows, pct: tl.Percentile, gated: true},
		{name: "cpu_ms_per_diag", value: m.win.cpuPer(), unit: "ms", samples: m.answers, windows: len(m.win.done), gated: true},
		{name: "peak_rss_mb", value: percentile(m.rssMB, rssPercentile), unit: "MiB", samples: len(m.rssMB), gated: true},
	}
	if len(m.reportMS) > 0 || len(m.hitMS) > 0 {
		out = append(out,
			line{name: "report_latency_p50_ms", value: median(m.reportMS), unit: "ms", samples: len(m.reportMS)},
			line{name: "hit_latency_p50_ms", value: median(m.hitMS), unit: "ms", samples: len(m.hitMS)},
		)
	}
	return out
}

// The resident set is sampled every rssEvery while a measured phase
// runs, and peak_rss_mb is the rssPercentile-th percentile of the
// samples: the high-water level of the phase. The process's absolute
// peak (VmHWM) is not used: on a machine whose CPUs are stolen in bursts
// the garbage collector falls behind now and then, and a momentary heap
// overshoot moved single runs of the stress workloads from 16 to 23 MiB.
const (
	rssEvery      = 50 * time.Millisecond
	rssPercentile = 90
)

// rssSampler samples the resident set on its own goroutine until stop.
type rssSampler struct {
	quit    chan struct{}
	done    chan struct{}
	samples []float64
	err     error
}

func startRSS() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			mb, err := residentMB()
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, mb)
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling, waits for the sampler and returns its samples.
func (s *rssSampler) stop() ([]float64, error) {
	close(s.quit)
	<-s.done
	return s.samples, s.err
}

// residentMB reads the process's resident set from /proc/self/statm, in
// MiB.
func residentMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(data), &size, &resident); err != nil {
		return 0, fmt.Errorf("parsing /proc/self/statm: %w", err)
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20), nil
}

// clock measures one phase: wall time, process CPU time and, when asked,
// the allocation counters of the Go runtime.
type clock struct {
	start   time.Time
	cpu     time.Duration
	mem     bool
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

func startClock(mem bool) *clock {
	c := &clock{mem: mem}
	if mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		c.mallocs, c.bytes, c.gcs = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	}
	c.cpu = processCPU()
	c.start = time.Now()
	return c
}

// elapsed is what a phase used since startClock.
type elapsed struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
	gcs            uint32
}

// now is the wall and CPU time used since startClock.
func (c *clock) now() (wall, cpu time.Duration) {
	return time.Since(c.start), processCPU() - c.cpu
}

func (c *clock) stop() elapsed {
	e := elapsed{wall: time.Since(c.start), cpu: processCPU() - c.cpu}
	if c.mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		e.mallocs, e.bytes, e.gcs = ms.Mallocs-c.mallocs, ms.TotalAlloc-c.bytes, ms.NumGC-c.gcs
	}
	return e
}

// processCPU is the user plus system CPU time of the whole process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counters sums a diagnosis's own statistics over the diagnoses that
// ran the pipeline.
type counters struct {
	n             int
	reproduce     time.Duration
	diagnose      time.Duration
	executed      uint64
	replayed      uint64
	snapshotBytes uint64
	lifsSched     int
	pruned        int
	prefixHits    int
	anSched       int
	flipsExec     int
	flipsSkipped  int
	priorHits     int
}

func (c *counters) add(s *aitia.ResultSummary) {
	c.n++
	c.reproduce += s.ReproduceTime
	c.diagnose += s.DiagnoseTime
	c.executed += s.ExecutedInstrs
	c.replayed += s.ReplayedInstrs
	c.snapshotBytes += s.SnapshotBytes
	c.lifsSched += s.LIFSSchedules
	c.pruned += s.LIFSPruned
	c.prefixHits += s.PrefixHits
	c.anSched += s.AnalysisSchedules
	c.flipsExec += s.FlipsExecuted
	c.flipsSkipped += s.FlipsSkipped
	c.priorHits += s.PriorHits
}

// outside is the part of wall not spent in the two pipeline stages.
func outside(s *aitia.ResultSummary, wall time.Duration) time.Duration {
	return wall - s.ReproduceTime - s.DiagnoseTime
}

func (c *counters) schedules() int { return c.lifsSched + c.anSched }

// per divides a total by the number of diagnoses.
func (c *counters) per(total float64) float64 { return ratio(total, float64(c.n)) }

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	plain      counters // untraced phase
	plainUse   elapsed  // untraced phase resources (allocation counters read)
	overheadMS float64  // mean call wall outside the two pipeline stages
	// tracingOverhead is the traced phase's wall time over the untraced
	// phase's, minus one.
	tracingOverhead float64
	self            map[string]time.Duration
	selfDiags       int // diagnoses the self times were summed over

	// pool comparison (stress-parallel only; zero elsewhere)
	speedup       float64
	instrOverhead float64

	kasmParseUS   float64
	ingestParseUS float64
	ingestResUS   float64
	candidates    float64

	// service layers (zero where the service is bypassed)
	hitRatio        float64
	dupMisses       float64
	journalPerJob   float64
	ckptSavesPerJob float64
	replayed        float64
	priorPairs      float64
	pollsPerJob     float64
}

// spanMetrics are the program's spans (see internal/obs) whose self
// times every workload reports per diagnosis. Spans only some workloads
// emit (the benchmark's own bench.diagnose, pool, manager and job spans)
// are printed but not listed in BENCHMARK.json.
var spanMetrics = []string{"lifs.search", "lifs.phase", "lifs.probe", "lifs.task", "lifs.replay", "ca.analyze", "ca.flip"}

// perLayer are the per-layer metrics every workload reports, in
// BENCHMARK.json order.
func perLayer(in layerInputs) []line {
	c := &in.plain
	l := func(name string, v float64, unit string) line {
		return line{name: name, value: v, unit: unit, samples: c.n, gated: true}
	}
	out := []line{
		l("exec.ns_per_instr", ratio(float64(c.reproduce+c.diagnose), float64(c.executed)), "ns"),
		l("exec.instrs_per_diag", c.per(float64(c.executed)), "count"),
		l("exec.allocs_per_schedule", ratio(float64(in.plainUse.mallocs), float64(c.schedules())), "count"),
		l("exec.bytes_per_schedule", ratio(float64(in.plainUse.bytes), float64(c.schedules())), "B"),
		l("exec.gc_per_diag", c.per(float64(in.plainUse.gcs)), "count"),
		l("mem.snapshot_bytes_per_diag", c.per(float64(c.snapshotBytes)), "B"),
		l("lifs.ms_per_diag", c.per(ms(c.reproduce)), "ms"),
		l("lifs.schedules_per_diag", c.per(float64(c.lifsSched)), "count"),
		l("lifs.pruned_per_diag", c.per(float64(c.pruned)), "count"),
		l("lifs.replayed_instrs_per_diag", c.per(float64(c.replayed)), "count"),
		l("lifs.prefix_hits_per_diag", c.per(float64(c.prefixHits)), "count"),
		l("causality.ms_per_diag", c.per(ms(c.diagnose)), "ms"),
		l("causality.flips_executed_per_diag", c.per(float64(c.flipsExec)), "count"),
		l("causality.flip_skip_ratio", ratio(float64(c.flipsSkipped), float64(c.flipsExec+c.flipsSkipped)), "ratio"),
		l("causality.schedules_per_diag", c.per(float64(c.anSched)), "count"),
		l("pool.speedup_vs_serial", in.speedup, "x"),
		l("pool.replayed_instrs_overhead", in.instrOverhead, "ratio"),
		l("pool.cpu_per_wall", ratio(float64(in.plainUse.cpu), float64(in.plainUse.wall)), "ratio"),
		l("aitia.overhead_ms_per_diag", in.overheadMS, "ms"),
		l("kasm.parse_us", in.kasmParseUS, "us"),
		l("ingest.parse_us", in.ingestParseUS, "us"),
		l("ingest.resolve_us", in.ingestResUS, "us"),
		l("ingest.candidates_per_report", in.candidates, "count"),
		l("service.cache_hit_ratio", in.hitRatio, "ratio"),
		l("service.dup_misses", in.dupMisses, "count"),
		l("durable.journal_bytes_per_job", in.journalPerJob, "B"),
		l("durable.checkpoint_saves_per_job", in.ckptSavesPerJob, "count"),
		l("durable.replayed_records", in.replayed, "count"),
		l("prior.pairs", in.priorPairs, "count"),
		l("prior.hits_per_diag", c.per(float64(c.priorHits)), "count"),
		l("httpapi.polls_per_job", in.pollsPerJob, "count"),
		l("obs.tracing_overhead", in.tracingOverhead, "ratio"),
	}
	gated := map[string]bool{}
	for _, name := range spanMetrics {
		gated[name] = true
		out = append(out, line{
			name: "span." + name + ".self_ms", value: ratio(ms(in.self[name]), float64(in.selfDiags)),
			unit: "ms", samples: in.selfDiags, gated: true,
		})
	}
	for _, name := range sortedKeys(in.self) {
		if !gated[name] {
			out = append(out, line{
				name: "span." + name + ".self_ms", value: ratio(ms(in.self[name]), float64(in.selfDiags)),
				unit: "ms", samples: in.selfDiags,
			})
		}
	}
	return out
}

// spanAgg sums span self times over many traces and keeps the events
// of the first few diagnoses for the Chrome trace file.
type spanAgg struct {
	self   map[string]time.Duration
	diags  int
	keep   *obs.Tracer
	kept   int
	offset time.Duration
}

// keepTraces bounds how many diagnoses the written trace file holds.
const keepTraces = 8

func newSpanAgg() *spanAgg {
	return &spanAgg{self: map[string]time.Duration{}, keep: obs.New()}
}

func (a *spanAgg) add(tr *obs.Tracer) {
	evs := tr.Events()
	a.addEvents(evs)
	a.keepEvents(evs)
}

// keepEvents appends one diagnosis's spans to the kept trace, shifted
// to start after the previous one so lanes never overlap.
func (a *spanAgg) keepEvents(evs []obs.Event) {
	if a.kept >= keepTraces {
		return
	}
	var end time.Duration
	for _, ev := range evs {
		ev.Start += a.offset
		if e := ev.Start + ev.Dur; e > end {
			end = e
		}
		a.keep.Emit(ev)
	}
	a.offset = end + time.Millisecond
	a.kept++
}

func (a *spanAgg) addEvents(evs []obs.Event) {
	for k, v := range selfTimes(evs) {
		a.self[k] += v
	}
	a.diags++
}
