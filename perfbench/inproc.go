package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"aitia"
	"aitia/internal/eval"
	"aitia/internal/ingest"
	"aitia/internal/kasm"
	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/obs"
)

// inproc describes an in-process workload: one caller diagnosing through
// the aitia package.
type inproc struct {
	setupReps  int
	window     int          // answers per window (throughput, CPU, median latency)
	tailWindow int          // samples per tail window
	setup      func() error // timed: compile and load the programs
	prepare    func() error // untimed: reference answers
	// call runs one diagnosis and returns its reference chain.
	call        func(tr *obs.Tracer, lifsWorkers int) (*aitia.Result, string, error)
	lifsWorkers int
	// layerInputs returns the workload's programs as kasm text and its
	// crash reports, for timing the parsers on this workload's inputs.
	layerInputs func() (sources []string, reports []reportInput, err error)
}

type reportInput struct {
	prog *kir.Program
	text string
}

// Stress program shape: 7 threads of 40 padding instructions, 7! = 5040
// schedules per search, run by stressWorkers LIFS workers.
const (
	stressThreads = 7
	stressPad     = 40
	stressWorkers = 2
)

// runStress diagnoses the stress program over and over. The program has
// no random part, so the seed changes nothing but is recorded.
func runStress(c config) (*measurement, error) {
	built, err := eval.ParallelStressProgram(stressThreads, stressPad)
	if err != nil {
		return nil, err
	}
	src := kasm.Disassemble(built)
	var prog *aitia.Program
	var want string
	return runInProc(c, inproc{
		setupReps:  1001,
		window:     5,
		tailWindow: 40, // the fewest samples for which p75 keeps 10 beyond
		setup:      func() error { return compileAndLoad([]string{src}) },
		prepare: func() error {
			var err error
			if prog, err = aitia.Compile(src); err != nil {
				return err
			}
			res, err := aitia.Diagnose(prog, aitia.Options{LIFSWorkers: 1})
			if err != nil {
				return fmt.Errorf("reference diagnosis: %w", err)
			}
			want = res.Chain
			return nil
		},
		call: func(tr *obs.Tracer, w int) (*aitia.Result, string, error) {
			res, err := aitia.Diagnose(prog, aitia.Options{LIFSWorkers: w, Tracer: tr})
			return res, want, err
		},
		lifsWorkers: stressWorkers,
		layerInputs: func() ([]string, []reportInput, error) {
			text, err := synthReport(built, false)
			if err != nil {
				return nil, nil, fmt.Errorf("stress report: %w", err)
			}
			return []string{src}, []reportInput{{built, text}}, nil
		},
	})
}

// inprocWarmup is how long an in-process workload runs untimed before
// measuring: the first diagnoses of a process run up to twice as slow
// while the heap grows to its working size.
const inprocWarmup = 2 * time.Second

// loopResult is one closed-loop phase of an in-process workload.
type loopResult struct {
	lat       []float64 // call wall times of correct answers, ms
	attempted int
	failed    int
	cnt       counters
	outside   time.Duration // call wall outside the pipeline stages, summed
	use       elapsed
	win       windows
}

// loop calls the workload until d has passed. With agg set, every call
// runs under a fresh tracer inside a "bench/diagnose" span.
func (w *inproc) loop(d time.Duration, lifsWorkers int, agg *spanAgg, mem bool) loopResult {
	r := loopResult{win: windows{size: w.window}}
	clk := startClock(mem)
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		var tr *obs.Tracer
		if agg != nil {
			tr = obs.New()
		}
		sp := tr.Begin("bench", "diagnose", 0)
		t0 := time.Now()
		res, want, err := w.call(tr, lifsWorkers)
		wall := time.Since(t0)
		sp.End()
		r.attempted++
		switch {
		case err != nil:
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: diagnosis failed: %v\n", err)
			continue
		case res.Chain != want:
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: chain mismatch: got %q, want %q\n", res.Chain, want)
			continue
		}
		r.lat = append(r.lat, ms(wall))
		r.win.blind(ms(wall))
		r.win.answered(clk.now())
		sum := res.Summary()
		r.cnt.add(sum)
		r.outside += outside(sum, wall)
		if agg != nil {
			agg.add(tr)
		}
	}
	r.win.end(clk.now())
	r.use = clk.stop()
	return r
}

func (m *measurement) addLoop(r loopResult) {
	m.attempted += r.attempted
	m.failed += r.failed
	m.blindMS = append(m.blindMS, r.lat...)
	m.answers += len(r.lat)
}

func runInProc(c config, w inproc) (*measurement, error) {
	m := &measurement{tailSize: w.tailWindow}
	for i := 0; i < w.setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
	}
	if err := w.prepare(); err != nil {
		return nil, err
	}
	if warm := w.loop(inprocWarmup, w.lifsWorkers, nil, false); warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d diagnoses failed", warm.failed, warm.attempted)
	}
	total := time.Duration(c.seconds) * time.Second
	rss := startRSS()
	var err error
	if !c.trace {
		r := w.loop(total, w.lifsWorkers, nil, false)
		m.addLoop(r)
		m.win = r.win
	} else {
		err = w.traced(c, m, total)
	}
	samples, rerr := rss.stop()
	if err != nil {
		return nil, err
	}
	if rerr != nil {
		return nil, rerr
	}
	m.rssMB = samples
	return m, nil
}

// traced splits the run into an untraced phase (counters, allocations,
// CPU), a serial comparison phase when the workload runs the LIFS pool,
// and a traced phase (span self times, tracing overhead).
func (w *inproc) traced(c config, m *measurement, total time.Duration) error {
	phases := 2
	if w.lifsWorkers > 1 {
		phases = 3
	}
	part := total / time.Duration(phases)
	var in layerInputs
	plain := w.loop(part, w.lifsWorkers, nil, true)
	m.addLoop(plain)
	in.plain, in.plainUse = plain.cnt, plain.use
	in.overheadMS = plain.cnt.per(ms(plain.outside))
	if w.lifsWorkers > 1 {
		serial := w.loop(part, 1, nil, false)
		m.addLoop(serial)
		in.speedup = ratio(mean(serial.lat), mean(plain.lat))
		in.instrOverhead = ratio(plain.cnt.per(float64(plain.cnt.executed)), serial.cnt.per(float64(serial.cnt.executed)))
	}
	agg := newSpanAgg()
	traced := w.loop(part, w.lifsWorkers, agg, false)
	m.addLoop(traced)
	in.tracingOverhead = pairedOverhead(plain.lat, traced.lat)
	in.self, in.selfDiags = agg.self, agg.diags
	if err := writeTrace(c, agg.keep.Events()); err != nil {
		return err
	}

	srcs, reps, err := w.layerInputs()
	if err != nil {
		return err
	}
	in.kasmParseUS, err = timeKasm(srcs)
	if err != nil {
		return err
	}
	in.ingestParseUS, in.ingestResUS, in.candidates, err = timeIngest(reps)
	if err != nil {
		return err
	}
	m.layers = perLayer(in)
	return nil
}

// pairedOverhead compares the traced and untraced phases over the calls
// both made; every call diagnoses the same program.
func pairedOverhead(plain, traced []float64) float64 {
	k := min(len(plain), len(traced))
	var p, t float64
	for i := 0; i < k; i++ {
		p += plain[i]
		t += traced[i]
	}
	return ratio(t, p) - 1
}

// compileAndLoad parses each kasm source and loads it into a fresh
// kernel machine.
func compileAndLoad(srcs []string) error {
	for _, s := range srcs {
		prog, err := kasm.Parse(s)
		if err != nil {
			return err
		}
		if _, err := kvm.New(prog); err != nil {
			return err
		}
	}
	return nil
}

// parseRounds is how often each input is parsed when timing a parser.
const parseRounds = 5

// timeKasm is the mean time of one kasm.Parse over the sources, in µs.
func timeKasm(srcs []string) (float64, error) {
	var total time.Duration
	for r := 0; r < parseRounds; r++ {
		for _, s := range srcs {
			t0 := time.Now()
			_, err := kasm.Parse(s)
			total += time.Since(t0)
			if err != nil {
				return 0, err
			}
		}
	}
	return ratio(float64(total.Microseconds()), float64(parseRounds*len(srcs))), nil
}

// reportCandidates mirrors the manager's cap on concrete report
// resolutions (guided searches) per report-driven diagnosis.
const reportCandidates = 8

// timeIngest times ingest.Parse and ingest.Resolve per report, in µs,
// and counts the guided-search candidates each report resolves to.
func timeIngest(reps []reportInput) (parseUS, resolveUS, cands float64, err error) {
	var tp, tr time.Duration
	n := 0
	for r := 0; r < parseRounds; r++ {
		for _, ri := range reps {
			t0 := time.Now()
			rpt, perr := ingest.Parse(ri.text)
			t1 := time.Now()
			if perr != nil {
				return 0, 0, 0, perr
			}
			ps := ingest.Resolve(ri.prog, rpt)
			tr += time.Since(t1)
			tp += t1.Sub(t0)
			if r == 0 {
				cands += float64(len(ps.Candidates(reportCandidates)))
			}
			n++
		}
	}
	per := func(d time.Duration) float64 { return ratio(float64(d.Nanoseconds())/1e3, float64(n)) }
	return per(tp), per(tr), ratio(cands, float64(len(reps))), nil
}

// writeTrace writes events as Chrome trace JSON under c.out/traces and
// checks the file with the program's own validator.
func writeTrace(c config, events []obs.Event) error {
	dir := filepath.Join(c.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", c.workload, c.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChrome(f, events); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := obs.ValidateChrome(data); err != nil {
		return fmt.Errorf("trace %s: %w", path, err)
	}
	return nil
}
