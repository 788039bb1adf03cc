// Command aitia-bench regenerates the paper's evaluation artifacts from
// the scenario corpus: Table 1 (requirements matrix), Table 2 (CVE
// diagnoses), Table 3 (Syzkaller-bug diagnoses), the §5.2 conciseness
// statistics, the baseline comparison, and the Figure 5 search tree.
//
// Usage:
//
//	aitia-bench -all
//	aitia-bench -table 2
//	aitia-bench -conciseness -baselines
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"aitia/internal/core"
	"aitia/internal/eval"
	"aitia/internal/factory"
	"aitia/internal/faultinject"
	"aitia/internal/ingest"
	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/manager"
	"aitia/internal/obs"
	"aitia/internal/prior"
	"aitia/internal/report"
	"aitia/internal/sanitizer"
	"aitia/internal/scenarios"
)

func main() {
	var (
		all      = flag.Bool("all", false, "regenerate every artifact")
		table    = flag.Int("table", 0, "regenerate one table (1, 2 or 3)")
		concise  = flag.Bool("conciseness", false, "regenerate the §5.2 conciseness statistics")
		baseline = flag.Bool("baselines", false, "regenerate the baseline comparison (§5.2/§5.3)")
		figure5  = flag.Bool("figure5", false, "regenerate the Figure 5 search tree")
		ablation = flag.Bool("ablations", false, "run the design-choice ablations")
		repro    = flag.Bool("reproduction", false, "compare LIFS vs random scheduling for reproduction cost")
		chains   = flag.Bool("chains", false, "print every scenario's causality chain")
		lifs     = flag.Bool("lifs", false, "run the LIFS performance artifact (parallel search + snapshot strategy)")
		flips    = flag.Bool("flips", false, "run the learned flip-ordering artifact: diagnose the corpus cold (no prior) and warm (prior fed by the cold pass), comparing flip-test counts")
		out      = flag.String("out", "", "with -lifs, -flips or their -check gates: also write the artifact as JSON to this path")
		seed     = flag.Int64("seed", 1, "seed for the baselines' execution corpus")
		checkCh  = flag.Bool("check-chains", false, "re-diagnose the corpus and fail unless every chain matches the golden set (the CI corpus gate)")
		checkRep = flag.Bool("check-reports", false, "report-corpus gate: synthesize each scenario's crash report, re-diagnose from the report alone, and fail unless the chain is golden and the seeded search runs strictly fewer schedules than the blind baseline")
		repArt   = flag.String("report-artifacts", "", "with -check-reports: write each failing scenario's synthesized report and execution trace into this directory")
		faults   = flag.Bool("faults", false, "chaos gate: re-diagnose the corpus under deterministic fault injection (seeded by -seed) and fail unless serial and 8-worker runs agree and every chain is golden or Partial with a machine-readable reason")
		faultR   = flag.Float64("fault-rate", 0.1, "with -faults: per-decision fault probability")
		checkLF  = flag.String("check-lifs", "", "run the -lifs artifact and fail if schedule counts or speedups regress more than 25% against the committed baseline JSON at this path")
		checkFl  = flag.String("check-flips", "", "flip-regression gate: run the -flips artifact and fail unless every warm chain is byte-identical to cold, the warm pass skips at least 25% of flip tests, and flip counts stay within ±25% of the committed baseline JSON at this path")
		crashRes = flag.Bool("crash-resume", false, "crash-recovery gate, in-process half: interrupt checkpointed diagnoses mid-search and mid-analysis and fail unless they resume to the golden diagnosis with strictly fewer schedules")
		killRec  = flag.String("kill-recover", "", "crash-recovery gate, process half: path to an aitia-serve binary to spawn with a durable data dir, SIGKILL mid-diagnosis, restart, and fail unless every submitted job recovers to its golden chain")
		killDir  = flag.String("kill-data-dir", "", "with -kill-recover: use this data dir (left in place on failure for artifact upload); empty uses a temp dir")
		corpus   = flag.String("corpus", "", "scenario subset for the corpus gates (all, handbuilt, generated, or a group name); empty picks each gate's default — handbuilt for the perf and resilience gates, all for the correctness gates")
		checkMx  = flag.Bool("check-matrix", false, "bug-class coverage gate: classify the corpus into the failure-class × interleaving-structure matrix and fail unless every failure class keeps at least -matrix-min representatives")
		matrixMn = flag.Int("matrix-min", 3, "with -check-matrix: minimum representatives per failure class")
		trace    = flag.String("trace", "", "write an execution trace of diagnosing -trace-scenario as Chrome trace-event JSON to this path")
		traceSc  = flag.String("trace-scenario", "cve-2017-15649", "scenario to diagnose for -trace")
		traceW   = flag.Int("trace-workers", runtime.GOMAXPROCS(0), "worker count for the -trace diagnosis")
	)
	flag.Parse()
	if !*all && *table == 0 && !*concise && !*baseline && !*figure5 && !*chains && !*ablation && !*repro && !*lifs && !*flips && !*checkCh && !*checkRep && !*checkMx && !*faults && !*crashRes && *killRec == "" && *checkLF == "" && *checkFl == "" && *trace == "" {
		*all = true
	}

	if *all || *table == 2 {
		check(printTable2())
	}
	if *all || *table == 3 {
		check(printTable3())
	}
	if *all || *concise {
		check(printConciseness())
	}
	if *all || *baseline || *table == 1 {
		check(printBaselines(*seed, *all || *table == 1))
	}
	if *all || *figure5 {
		check(printFigure5())
	}
	if *all || *ablation {
		check(printAblations())
	}
	if *all || *repro {
		check(printReproduction(*seed))
	}
	if *chains {
		check(printChains())
	}
	if *lifs {
		list, _ := gateCorpus(*corpus, "handbuilt")
		_, err := printLIFS(list, *out)
		check(err)
	}
	if *flips {
		list, _ := gateCorpus(*corpus, "handbuilt")
		_, err := printFlips(list, *out)
		check(err)
	}
	if *checkCh {
		list, name := gateCorpus(*corpus, "all")
		check(checkChains(list, name))
	}
	if *checkRep {
		list, name := gateCorpus(*corpus, "all")
		check(checkReports(list, name, *repArt))
	}
	if *checkMx {
		list, name := gateCorpus(*corpus, "all")
		check(checkMatrix(list, name, *matrixMn))
	}
	if *faults {
		// With -faults, -trace names the failure artifact runChaos writes
		// for the first violating scenario, not a standalone trace run.
		list, name := gateCorpus(*corpus, "handbuilt")
		check(runChaos(*seed, *faultR, *trace, list, name))
	}
	if *crashRes {
		check(runCrashResume())
	}
	if *killRec != "" {
		list, _ := gateCorpus(*corpus, "handbuilt")
		check(runKillRecover(list, *killRec, *killDir))
	}
	if *checkLF != "" {
		list, _ := gateCorpus(*corpus, "handbuilt")
		check(checkLIFSArtifact(list, *checkLF, *out))
	}
	if *checkFl != "" {
		list, _ := gateCorpus(*corpus, "handbuilt")
		check(checkFlipsArtifact(list, *checkFl, *out))
	}
	if *trace != "" && !*faults {
		check(writeTrace(*trace, *traceSc, *traceW))
	}
}

// gateCorpus resolves the -corpus flag for one gate: an explicit value
// wins, otherwise the gate's default applies. The perf and resilience
// gates default to "handbuilt" so the growing generated corpus never
// shifts their committed baselines; the correctness gates default to
// "all" so every emitted scenario is held to its pinned ground truth.
func gateCorpus(flagVal, def string) ([]*scenarios.Scenario, string) {
	name := flagVal
	if name == "" {
		name = def
	}
	list, err := scenarios.Subset(name)
	check(err)
	if len(list) == 0 {
		check(fmt.Errorf("corpus subset %q is empty", name))
	}
	return list, name
}

// checkMatrix is the bug-class coverage CI gate: it classifies the
// selected corpus into the failure-class × interleaving-structure matrix
// (the Tables 2–3 bug taxonomy) and fails unless every failure class
// keeps at least minPer representatives. The full matrix prints either
// way, so a failing run shows exactly which cells went empty.
func checkMatrix(list []*scenarios.Scenario, name string, minPer int) error {
	m := factory.NewMatrix()
	for _, sc := range list {
		m.AddScenario(sc)
	}
	fmt.Printf("bug-class matrix (%s corpus, %d scenarios):\n%s", name, m.Total(), m)
	if missing := m.MissingFailure(minPer); len(missing) > 0 {
		return fmt.Errorf("check-matrix: failure classes below %d representatives in the %s corpus: %s",
			minPer, name, strings.Join(missing, ", "))
	}
	fmt.Printf("check-matrix: every failure class has >= %d representatives across %d scenarios\n",
		minPer, len(list))
	return nil
}

// checkChains is the CI corpus gate: it re-diagnoses every scenario of
// the selected subset and compares the causality chain against
// scenarios.GoldenChains, independently of `go test` — an edited or
// skipped golden test cannot hide a regression from this path.
func checkChains(list []*scenarios.Scenario, name string) error {
	rows, err := eval.Run(list)
	if err != nil {
		return err
	}
	// Only the full corpus can account for every golden chain; a subset
	// run still requires a golden for each of its own scenarios below.
	if name == "all" && len(rows) != len(scenarios.GoldenChains) {
		return fmt.Errorf("check-chains: corpus has %d scenarios but %d golden chains — regenerate with -chains and update internal/scenarios/golden.go",
			len(rows), len(scenarios.GoldenChains))
	}
	bad := 0
	for _, r := range rows {
		want, ok := scenarios.GoldenChains[r.Scenario.Name]
		if !ok {
			fmt.Printf("FAIL %-22s no golden chain\n", r.Scenario.Name)
			bad++
			continue
		}
		if r.Chain != want {
			fmt.Printf("FAIL %-22s chain = %q\n     %-22s want    %q\n", r.Scenario.Name, r.Chain, "", want)
			bad++
			continue
		}
		fmt.Printf("ok   %-22s %s\n", r.Scenario.Name, r.Chain)
	}
	if bad > 0 {
		return fmt.Errorf("check-chains: %d of %d scenarios diverge from the golden chains", bad, len(rows))
	}
	fmt.Printf("check-chains: all %d scenario chains match the golden set\n", len(rows))
	return nil
}

// checkReports is the report-corpus CI gate: for every scenario it
// reproduces the failure blind, renders the failing run as a KCSAN-style
// crash report, then diagnoses from that report text alone. The gate
// fails unless the report-driven chain matches the golden set AND the
// report-seeded search executes strictly fewer schedules than the blind
// baseline — the whole point of constraining LIFS with report suspects.
// When artifactDir is set, each violating scenario leaves its report and
// an execution trace of the report-driven run there for upload.
// Generated scenarios whose manifest recorded ReportOK=false at emission
// are skipped with a visible line rather than failed.
func checkReports(list []*scenarios.Scenario, name, artifactDir string) error {
	bad, checked := 0, 0
	for _, sc := range list {
		if sc.GenInfo != nil && !sc.GenInfo.ReportOK {
			fmt.Printf("skip %-22s synthesized report does not round-trip (recorded at emission)\n", sc.Name)
			continue
		}
		checked++
		prog := sc.MustProgram()
		m, err := kvm.New(prog)
		if err != nil {
			return err
		}
		blind, err := core.Reproduce(m, core.LIFSOptions{
			WantKind:  sc.WantKind,
			WantInstr: sc.WantInstr(),
			LeakCheck: sc.NeedsLeakCheck(),
		})
		if err != nil {
			return fmt.Errorf("check-reports: %s: blind baseline: %w", sc.Name, err)
		}
		text, err := ingest.Synthesize(prog, blind.Run, blind.Races)
		if err != nil {
			return fmt.Errorf("check-reports: %s: synthesize: %w", sc.Name, err)
		}
		rpt, err := ingest.Parse(text)
		if err != nil {
			return fmt.Errorf("check-reports: %s: synthesized report does not parse: %w", sc.Name, err)
		}

		tr := obs.New()
		mgr, err := manager.New(prog, manager.Options{Tracer: tr})
		if err != nil {
			return err
		}
		mres, err := mgr.DiagnoseReport(context.Background(), rpt)
		fail := func(format string, args ...any) {
			fmt.Printf("FAIL %-22s %s\n", sc.Name, fmt.Sprintf(format, args...))
			bad++
			if werr := writeReportArtifacts(artifactDir, sc.Name, text, tr); werr != nil {
				fmt.Fprintf(os.Stderr, "check-reports: could not write artifacts for %s: %v\n", sc.Name, werr)
			}
		}
		switch {
		case err != nil:
			fail("report-driven diagnosis errored: %v", err)
		case mres.Resolution.Degraded():
			fail("synthesized report resolved degraded: %v", mres.Resolution.Partial)
		default:
			chain := mres.Diagnosis.Chain.Format(prog)
			seeded := mres.Reproduction.Stats.Schedules
			if want := scenarios.GoldenChains[sc.Name]; chain != want {
				fail("chain = %q\n     %-22s want    %q", chain, "", want)
			} else if seeded >= blind.Stats.Schedules {
				fail("seeded search ran %d schedules, blind baseline %d — want strictly fewer", seeded, blind.Stats.Schedules)
			} else {
				fmt.Printf("ok   %-22s %d -> %d schedules  %s\n", sc.Name, blind.Stats.Schedules, seeded, chain)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("check-reports: %d of %d scenarios fail the report-driven gate", bad, checked)
	}
	fmt.Printf("check-reports: all %d scenarios (%s corpus) diagnose from their crash report alone, each with fewer schedules than blind\n",
		checked, name)
	return nil
}

// writeReportArtifacts dumps a violating scenario's synthesized report
// and the Chrome trace of its report-driven diagnosis, so the CI gate
// leaves a postmortem. A nil/empty dir disables artifacts.
func writeReportArtifacts(dir, name, reportText string, tr *obs.Tracer) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".report.txt"), []byte(reportText), 0o644); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".trace.json"), buf.Bytes(), 0o644)
}

// runChaos is the chaos CI gate: every corpus scenario is re-diagnosed
// under a deterministic fault plan, serially and with 8 workers. The
// run passes when, per scenario, both worker counts produce identical
// results AND the outcome is one of the three sanctioned shapes:
// the golden chain, a Partial diagnosis with a machine-readable reason,
// or a classified retry exhaustion (which a service deployment would
// requeue). Anything else — divergent chains, unclassified errors, a
// silently wrong chain — fails the gate.
func runChaos(seed int64, rate float64, tracePath string, list []*scenarios.Scenario, name string) error {
	retry := faultinject.RetryPolicy{
		MaxAttempts: 6,
		BaseBackoff: 100 * time.Microsecond,
		MaxBackoff:  2 * time.Millisecond,
	}
	pipeline := func(sc *scenarios.Scenario, workers int, tr *obs.Tracer) (*core.Diagnosis, string, error) {
		plan := faultinject.NewPlan(seed, rate)
		m, err := kvm.New(sc.MustProgram())
		if err != nil {
			return nil, "", err
		}
		rep, err := core.Reproduce(m, core.LIFSOptions{
			WantKind:  sc.WantKind,
			WantInstr: sc.WantInstr(),
			LeakCheck: sc.NeedsLeakCheck(),
			Workers:   workers,
			Fault:     plan,
			Retry:     retry,
			Tracer:    tr,
		})
		if err != nil {
			return nil, "", err
		}
		d, err := core.Analyze(m, rep, core.AnalysisOptions{
			LeakCheck: sc.NeedsLeakCheck(),
			Workers:   workers,
			Fault:     plan,
			Retry:     retry,
			Tracer:    tr,
		})
		if err != nil {
			return nil, "", err
		}
		return d, d.Chain.Format(sc.MustProgram()), nil
	}

	fmt.Printf("chaos gate: fault seed %d, rate %g, retry budget %d\n", seed, rate, retry.MaxAttempts)
	bad := 0
	var firstBad *scenarios.Scenario
	violated := func(sc *scenarios.Scenario) {
		bad++
		if firstBad == nil {
			firstBad = sc
		}
	}
	for _, sc := range list {
		ds, cs, serr := pipeline(sc, 1, nil)
		dp, cp, perr := pipeline(sc, 8, nil)
		switch {
		case serr != nil || perr != nil:
			if serr != nil && perr != nil &&
				errors.Is(serr, faultinject.ErrExhausted) && errors.Is(perr, faultinject.ErrExhausted) {
				fmt.Printf("degr %-22s classified exhaustion on both (requeueable): %v\n", sc.Name, serr)
				continue
			}
			fmt.Printf("FAIL %-22s errors diverge or unclassified:\n     serial:   %v\n     workers8: %v\n", sc.Name, serr, perr)
			violated(sc)
		case cs != cp || ds.Partial != dp.Partial || ds.PartialReason != dp.PartialReason:
			fmt.Printf("FAIL %-22s serial and 8-worker runs diverge:\n     serial:   %q partial=%v (%s)\n     workers8: %q partial=%v (%s)\n",
				sc.Name, cs, ds.Partial, ds.PartialReason, cp, dp.Partial, dp.PartialReason)
			violated(sc)
		case ds.Partial:
			if ds.PartialReason == "" {
				fmt.Printf("FAIL %-22s Partial without a machine-readable reason\n", sc.Name)
				violated(sc)
				continue
			}
			fmt.Printf("part %-22s %q (%d unknown, reason %s)\n", sc.Name, cs, len(ds.Unknown), ds.PartialReason)
		default:
			if want := scenarios.GoldenChains[sc.Name]; cs != want {
				fmt.Printf("FAIL %-22s chain = %q\n     %-22s want    %q\n", sc.Name, cs, "", want)
				violated(sc)
				continue
			}
			fmt.Printf("ok   %-22s %s\n", sc.Name, cs)
		}
	}
	if bad > 0 {
		if tracePath != "" && firstBad != nil {
			if terr := writeChaosTrace(tracePath, firstBad, pipeline); terr != nil {
				fmt.Fprintf(os.Stderr, "faults: could not write failure trace: %v\n", terr)
			}
		}
		return fmt.Errorf("faults: %d scenarios violated the chaos invariant (seed %d, rate %g)", bad, seed, rate)
	}
	fmt.Printf("faults: all %d %s scenarios deterministic under injection (seed %d, rate %g)\n",
		len(list), name, seed, rate)
	return nil
}

// writeChaosTrace re-runs the first violating scenario's faulted serial
// pipeline with tracing enabled and dumps the spans — fault injections,
// retries and all — as a Chrome trace, so a failed chaos gate leaves a
// postmortem artifact. The rerun's own error is irrelevant (the gate has
// already failed); whatever spans were collected get written.
func writeChaosTrace(outPath string, sc *scenarios.Scenario, pipeline func(*scenarios.Scenario, int, *obs.Tracer) (*core.Diagnosis, string, error)) error {
	tr := obs.New()
	_, _, rerr := pipeline(sc, 1, tr)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(outPath, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "faults: wrote failure trace of %s to %s (%d spans, rerun error: %v)\n",
		sc.Name, outPath, len(tr.Events()), rerr)
	return nil
}

// writeTrace diagnoses one scenario with tracing enabled and exports the
// trace as Chrome trace-event JSON, validating it on the way out.
func writeTrace(outPath, name string, workers int) error {
	sc, ok := scenarios.ByName(name)
	if !ok {
		return fmt.Errorf("unknown scenario %q", name)
	}
	m, err := kvm.New(sc.MustProgram())
	if err != nil {
		return err
	}
	tr := obs.New()
	rep, err := core.Reproduce(m, core.LIFSOptions{
		WantKind:  sc.WantKind,
		WantInstr: sc.WantInstr(),
		LeakCheck: sc.NeedsLeakCheck(),
		Workers:   workers,
		Tracer:    tr,
	})
	if err != nil {
		return err
	}
	d, err := core.Analyze(m, rep, core.AnalysisOptions{
		LeakCheck: sc.NeedsLeakCheck(),
		Workers:   workers,
		Tracer:    tr,
	})
	if err != nil {
		return err
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		return err
	}
	if err := obs.ValidateChrome(buf.Bytes()); err != nil {
		return fmt.Errorf("exported trace does not validate: %w", err)
	}
	if err := os.WriteFile(outPath, buf.Bytes(), 0o644); err != nil {
		return err
	}

	events := tr.Events()
	fmt.Printf("wrote %s: %d spans from diagnosing %s with %d workers (chain: %s)\n",
		outPath, len(events), sc.Name, workers, d.Chain.Format(sc.MustProgram()))
	t := report.Table{Title: "Span summary (open the JSON in chrome://tracing or https://ui.perfetto.dev)"}
	t.Add("Category", "Span", "Count", "Total")
	for _, st := range obs.Summarize(events) {
		t.Add(st.Cat, st.Name, fmt.Sprint(st.Count), fmt.Sprint(time.Duration(st.Total).Round(time.Microsecond)))
	}
	t.Write(os.Stdout)
	return nil
}

// The JSON shape of the -lifs performance artifact (BENCH_lifs.json).
type lifsArtifact struct {
	Generated  string            `json:"generated"`
	CPUs       int               `json:"cpus"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Note       string            `json:"note"`
	Parallel   []lifsParallelRow `json:"parallel"`
	Snapshot   []lifsSnapshotRow `json:"snapshot"`
	Replay     []lifsReplayRow   `json:"replay"`
}

type lifsParallelRow struct {
	Scenario  string  `json:"scenario"`
	Workers   int     `json:"workers"`
	ElapsedNS int64   `json:"elapsed_ns"`
	Schedules int     `json:"schedules"`
	Speedup   float64 `json:"speedup_vs_serial"`
	// Instruction-level work of the measured search: total executed,
	// executed per schedule, and the share spent re-executing known
	// prefixes. In parallel runs ReplayedInstrs depends on how tasks land
	// on workers (each worker primes its own pin), so only the serial
	// rows are machine-comparable.
	ExecutedInstrs    uint64  `json:"executed_instrs"`
	InstrsPerSchedule float64 `json:"instrs_per_schedule"`
	ReplayedInstrs    uint64  `json:"replayed_instrs"`
}

// lifsReplayRow is one corpus scenario's serial diagnosis (Reproduce +
// Analyze) measured with the prefix cache on and off. The counts are
// deterministic, machine-portable, and the -check-lifs replay gate runs
// on their corpus totals.
type lifsReplayRow struct {
	Scenario    string `json:"scenario"`
	ReplayedOff uint64 `json:"replayed_instrs_off"`
	ReplayedOn  uint64 `json:"replayed_instrs_on"`
	SavedInstrs uint64 `json:"saved_instrs"`
	PrefixHits  int    `json:"prefix_hits"`
	PinnedBytes uint64 `json:"pinned_bytes"`
}

type lifsSnapshotRow struct {
	State          string  `json:"state"`
	Globals        int     `json:"globals"`
	CoWNSPerCycle  int64   `json:"cow_ns_per_cycle"`
	DeepNSPerCycle int64   `json:"deep_ns_per_cycle"`
	Speedup        float64 `json:"speedup"`
}

// printLIFS measures the two perf mechanisms of the search engine — worker
// sharding (LIFSOptions.Workers) and copy-on-write snapshots — and writes
// the numbers to stdout and, with -out, to a JSON artifact. All timings are
// best-of-3 to damp scheduler noise. The measured artifact is returned so
// -check-lifs can compare it against a committed baseline. The replay
// section measures the scenarios in list (the -corpus subset, hand-built
// by default so the committed baseline is insensitive to corpus growth).
func printLIFS(list []*scenarios.Scenario, outPath string) (*lifsArtifact, error) {
	art := lifsArtifact{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note: "parallel speedup requires spare CPUs: on a single-CPU runner the " +
			"workers serialize and speedup_vs_serial bounds the sharding overhead " +
			"instead; the snapshot comparison is single-threaded and unaffected",
	}

	// Parallel search: a permutation-heavy stress scenario with uniform
	// top-level branch mass, plus the hardest corpus reproduction.
	stress, err := eval.ParallelStressProgram(7, 40)
	if err != nil {
		return nil, err
	}
	syz, ok := scenarios.ByName("syz08-j1939-refcount")
	if !ok {
		return nil, fmt.Errorf("scenario syz08-j1939-refcount missing from corpus")
	}
	cases := []struct {
		name string
		prog *kir.Program
		opts core.LIFSOptions
	}{
		{"stress-7x40", stress, core.LIFSOptions{WantKind: sanitizer.KindNullDeref, MaxSchedules: 1 << 30}},
		{syz.Name, syz.MustProgram(), core.LIFSOptions{WantKind: syz.WantKind, WantInstr: syz.WantInstr()}},
	}
	t := report.Table{Title: "Parallel LIFS search (best of 3 runs)"}
	t.Add("Scenario", "Workers", "Elapsed", "# sched", "Speedup", "instrs/sched", "replayed")
	for _, c := range cases {
		var serial time.Duration
		for _, workers := range []int{1, 2, 4, 8} {
			best := time.Duration(0)
			scheds := 0
			var executed, replayed uint64
			for rep := 0; rep < 3; rep++ {
				m, err := kvm.New(c.prog)
				if err != nil {
					return nil, err
				}
				opts := c.opts
				opts.Workers = workers
				start := time.Now()
				r, err := core.Reproduce(m, opts)
				if err != nil {
					return nil, fmt.Errorf("%s workers=%d: %w", c.name, workers, err)
				}
				if el := time.Since(start); best == 0 || el < best {
					best = el
				}
				scheds = r.Stats.Schedules
				executed = r.Stats.ExecutedInstrs
				replayed = r.Stats.ReplayedInstrs
			}
			if workers == 1 {
				serial = best
			}
			speedup := float64(serial) / float64(best)
			perSched := 0.0
			if scheds > 0 {
				perSched = float64(executed) / float64(scheds)
			}
			art.Parallel = append(art.Parallel, lifsParallelRow{
				Scenario: c.name, Workers: workers,
				ElapsedNS: best.Nanoseconds(), Schedules: scheds,
				Speedup:           speedup,
				ExecutedInstrs:    executed,
				InstrsPerSchedule: perSched,
				ReplayedInstrs:    replayed,
			})
			t.Add(c.name, fmt.Sprint(workers), fmt.Sprint(best.Round(10_000)),
				fmt.Sprint(scheds), fmt.Sprintf("%.2fx", speedup),
				fmt.Sprintf("%.1f", perSched), fmt.Sprint(replayed))
		}
	}
	t.Write(os.Stdout)
	fmt.Printf("  (%d CPUs, GOMAXPROCS %d — %s)\n\n", art.CPUs, art.GOMAXPROCS, art.Note)

	// Incremental replay: the whole corpus diagnosed serially with the
	// prefix cache on and off. The counts are deterministic; golden-chain
	// equality across both modes is asserted here, so a cache bug cannot
	// ship a "fast" artifact with wrong diagnoses.
	rows, err := measureReplay(list)
	if err != nil {
		return nil, err
	}
	art.Replay = rows
	var offTot, onTot uint64
	rt := report.Table{Title: "Incremental replay: prefix cache off vs on (serial diagnosis, corpus)"}
	rt.Add("Scenario", "replayed off", "replayed on", "saved", "hits", "pinned B")
	for _, r := range rows {
		offTot += r.ReplayedOff
		onTot += r.ReplayedOn
		rt.Add(r.Scenario, fmt.Sprint(r.ReplayedOff), fmt.Sprint(r.ReplayedOn),
			fmt.Sprint(r.SavedInstrs), fmt.Sprint(r.PrefixHits), fmt.Sprint(r.PinnedBytes))
	}
	rt.Write(os.Stdout)
	fmt.Printf("  (corpus replayed instructions: %d off, %d on — %.1fx reduction)\n\n",
		offTot, onTot, replayRatio(offTot, onTot))

	// Snapshot strategy: checkpoint / 32-step burst / revert cycles. Deep
	// copy scales with total state width, the journal with bytes dirtied.
	wide, err := eval.WideStateProgram(4096)
	if err != nil {
		return nil, err
	}
	snapCases := []struct {
		name    string
		globals int
		prog    *kir.Program
	}{
		{syz.Name, 0, syz.MustProgram()},
		{"wide-4096", 4096, wide},
	}
	const cycles, burst = 3000, 32
	st := report.Table{Title: "Snapshot strategy: copy-on-write journal vs deep copy (per checkpoint/burst/revert cycle)"}
	st.Add("State", "CoW", "Deep copy", "Speedup")
	for _, c := range snapCases {
		cow, err := snapshotCycle(c.prog, cycles, burst, false)
		if err != nil {
			return nil, err
		}
		deep, err := snapshotCycle(c.prog, cycles, burst, true)
		if err != nil {
			return nil, err
		}
		speedup := float64(deep) / float64(cow)
		art.Snapshot = append(art.Snapshot, lifsSnapshotRow{
			State: c.name, Globals: c.globals,
			CoWNSPerCycle: cow.Nanoseconds(), DeepNSPerCycle: deep.Nanoseconds(),
			Speedup: speedup,
		})
		st.Add(c.name, fmt.Sprint(cow), fmt.Sprint(deep), fmt.Sprintf("%.1fx", speedup))
	}
	st.Write(os.Stdout)
	fmt.Printf("  (%d cycles of %d steps each; deep-copy cost grows with state width, CoW with bytes dirtied)\n\n",
		cycles, burst)

	if outPath != "" {
		data, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	return &art, nil
}

// measureReplay diagnoses every corpus scenario serially with the prefix
// cache disabled and enabled, returning the per-scenario replay counters.
// Both modes must produce the scenario's golden chain and identical
// schedule counts — the cache is a work optimization, never a result
// change — so a divergence fails the measurement itself.
func measureReplay(list []*scenarios.Scenario) ([]lifsReplayRow, error) {
	var rows []lifsReplayRow
	for _, sc := range list {
		var replayed [2]uint64
		var chains [2]string
		var scheds [2]int
		row := lifsReplayRow{Scenario: sc.Name}
		for i, disable := range []bool{true, false} {
			m, err := kvm.New(sc.MustProgram())
			if err != nil {
				return nil, err
			}
			rep, err := core.Reproduce(m, core.LIFSOptions{
				WantKind:  sc.WantKind,
				WantInstr: sc.WantInstr(),
				LeakCheck: sc.NeedsLeakCheck(),
				Prefix:    core.PrefixConfig{Disable: disable},
			})
			if err != nil {
				return nil, fmt.Errorf("replay-measure %s (cache=%v): %w", sc.Name, !disable, err)
			}
			d, err := core.Analyze(m, rep, core.AnalysisOptions{
				LeakCheck: sc.NeedsLeakCheck(),
				Prefix:    core.PrefixConfig{Disable: disable},
			})
			if err != nil {
				return nil, fmt.Errorf("replay-measure %s analyze (cache=%v): %w", sc.Name, !disable, err)
			}
			replayed[i] = rep.Stats.ReplayedInstrs + d.Stats.ReplayedInstrs
			chains[i] = d.Chain.Format(sc.MustProgram())
			scheds[i] = rep.Stats.Schedules
			if !disable {
				row.SavedInstrs = rep.Stats.SavedInstrs + d.Stats.SavedInstrs
				row.PrefixHits = rep.Stats.PrefixHits + d.Stats.PrefixHits
				row.PinnedBytes = rep.Stats.PinnedBytes
				if d.Stats.PinnedBytes > row.PinnedBytes {
					row.PinnedBytes = d.Stats.PinnedBytes
				}
			}
		}
		if chains[0] != chains[1] {
			return nil, fmt.Errorf("replay-measure %s: chain differs with the cache on (%q) vs off (%q)",
				sc.Name, chains[1], chains[0])
		}
		if want, ok := scenarios.GoldenChains[sc.Name]; ok && chains[0] != want {
			return nil, fmt.Errorf("replay-measure %s: chain %q does not match the golden %q", sc.Name, chains[0], want)
		}
		if scheds[0] != scheds[1] {
			return nil, fmt.Errorf("replay-measure %s: schedule count differs with the cache on (%d) vs off (%d)",
				sc.Name, scheds[1], scheds[0])
		}
		row.ReplayedOff, row.ReplayedOn = replayed[0], replayed[1]
		rows = append(rows, row)
	}
	return rows, nil
}

// replayRatio is off/on with a zero-safe denominator.
func replayRatio(off, on uint64) float64 {
	if on == 0 {
		on = 1
	}
	return float64(off) / float64(on)
}

// checkLIFSArtifact is the bench-regression CI gate: it re-measures the
// -lifs artifact and compares it against the committed baseline at
// baselinePath. Wall-clock times do not transfer between machines, so
// the gate checks machine-portable quantities only: per-(scenario,
// workers) schedule counts within ±25%, and parallel/snapshot speedup
// ratios one-sided (a regression of more than 25% fails; being faster
// never does). Parallel speedups are skipped when this machine has
// fewer CPUs than the baseline machine. With -out, the fresh artifact
// is written there so CI can upload it as the new candidate baseline.
func checkLIFSArtifact(list []*scenarios.Scenario, baselinePath, outPath string) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("check-lifs: %w", err)
	}
	var base lifsArtifact
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("check-lifs: parsing %s: %w", baselinePath, err)
	}
	art, err := printLIFS(list, outPath)
	if err != nil {
		return err
	}

	const tol = 0.25
	bad := 0
	fail := func(format string, args ...any) {
		fmt.Printf("FAIL "+format+"\n", args...)
		bad++
	}

	parallel := make(map[string]lifsParallelRow)
	for _, r := range base.Parallel {
		parallel[fmt.Sprintf("%s/w%d", r.Scenario, r.Workers)] = r
	}
	compareSpeedups := runtime.NumCPU() >= base.CPUs
	if !compareSpeedups {
		fmt.Printf("check-lifs: %d CPUs here vs %d in the baseline — parallel speedups not comparable, checking schedule counts only\n",
			runtime.NumCPU(), base.CPUs)
	}
	for _, r := range art.Parallel {
		key := fmt.Sprintf("%s/w%d", r.Scenario, r.Workers)
		b, ok := parallel[key]
		if !ok {
			fail("%-28s not in baseline %s — regenerate it with -lifs -out", key, baselinePath)
			continue
		}
		lo, hi := float64(b.Schedules)*(1-tol), float64(b.Schedules)*(1+tol)
		if s := float64(r.Schedules); s < lo || s > hi {
			fail("%-28s schedules = %d, baseline %d (±25%%: %.0f..%.0f) — the search explores a different amount of work",
				key, r.Schedules, b.Schedules, lo, hi)
		}
		if compareSpeedups && r.Speedup < b.Speedup*(1-tol) {
			fail("%-28s speedup = %.2fx, baseline %.2fx (floor %.2fx)", key, r.Speedup, b.Speedup, b.Speedup*(1-tol))
		}
	}

	snapshot := make(map[string]lifsSnapshotRow)
	for _, r := range base.Snapshot {
		snapshot[r.State] = r
	}
	for _, r := range art.Snapshot {
		b, ok := snapshot[r.State]
		if !ok {
			fail("snapshot/%-19s not in baseline %s — regenerate it with -lifs -out", r.State, baselinePath)
			continue
		}
		// The CoW-vs-deep ratio is single-threaded and machine-stable.
		if r.Speedup < b.Speedup*(1-tol) {
			fail("snapshot/%-19s CoW speedup = %.1fx, baseline %.1fx (floor %.1fx)",
				r.State, r.Speedup, b.Speedup, b.Speedup*(1-tol))
		}
	}

	// Replay gate: the prefix cache must keep earning its keep. The
	// measured counts are deterministic and machine-portable, so the
	// corpus totals carry a hard reduction floor plus a tolerance band
	// against the baseline (improvements always pass; measureReplay has
	// already asserted golden chains and cache-on/off schedule equality).
	if len(base.Replay) == 0 {
		fail("replay section missing from baseline %s — regenerate it with -lifs -out", baselinePath)
	} else {
		var baseOn, baseHits uint64
		for _, r := range base.Replay {
			baseOn += r.ReplayedOn
			baseHits += uint64(r.PrefixHits)
		}
		var freshOff, freshOn, freshHits uint64
		for _, r := range art.Replay {
			freshOff += r.ReplayedOff
			freshOn += r.ReplayedOn
			freshHits += uint64(r.PrefixHits)
		}
		replayBad := bad
		const minReplayReduction = 5.0
		if ratio := replayRatio(freshOff, freshOn); ratio < minReplayReduction {
			fail("replay reduction = %.1fx (corpus replayed %d off, %d on), floor %.0fx — the prefix cache stopped paying off",
				ratio, freshOff, freshOn, minReplayReduction)
		}
		if ceil := float64(baseOn) * (1 + tol); float64(freshOn) > ceil {
			fail("replayed instructions (cache on) = %d, baseline %d (ceiling +25%%: %.0f) — more prefix work is being re-executed",
				freshOn, baseOn, ceil)
		}
		lo, hi := float64(baseHits)*(1-tol), float64(baseHits)*(1+tol)
		if h := float64(freshHits); h < lo || h > hi {
			fail("prefix hits = %d, baseline %d (±25%%: %.0f..%.0f) — the cache hit rate changed structurally",
				freshHits, baseHits, lo, hi)
		}
		// The checks above compare corpus totals; name the scenarios that
		// moved so the CI log pinpoints the regression without a local rerun.
		if bad > replayBad {
			printReplayRows(base.Replay, art.Replay)
		}
	}

	if bad > 0 {
		where := ""
		if outPath != "" {
			where = fmt.Sprintf(" (fresh artifact written to %s)", outPath)
		}
		return fmt.Errorf("check-lifs: %d regressions against %s%s", bad, baselinePath, where)
	}
	fmt.Printf("check-lifs: no regression against %s (tolerance ±25%%, replay floor 5x)\n", baselinePath)
	return nil
}

// printReplayRows shows each scenario's replay counters next to the
// baseline's when a corpus-total replay check fails, marking the rows
// that moved, so the offending scenarios are visible in the CI log.
func printReplayRows(baseRows, freshRows []lifsReplayRow) {
	base := make(map[string]lifsReplayRow, len(baseRows))
	for _, r := range baseRows {
		base[r.Scenario] = r
	}
	t := report.Table{Title: "  per-scenario replay counters (fresh vs baseline)"}
	t.Add("Scenario", "replayed on", "base", "hits", "base")
	for _, r := range freshRows {
		b := base[r.Scenario]
		name := r.Scenario
		if r.ReplayedOn != b.ReplayedOn || r.PrefixHits != b.PrefixHits {
			name = "! " + name
		}
		t.Add(name, fmt.Sprint(r.ReplayedOn), fmt.Sprint(b.ReplayedOn),
			fmt.Sprint(r.PrefixHits), fmt.Sprint(b.PrefixHits))
	}
	t.Write(os.Stdout)
}

// The JSON shape of the -flips learned-ordering artifact (BENCH_flips.json).
type flipsArtifact struct {
	Generated   string     `json:"generated"`
	Note        string     `json:"note"`
	PriorPairs  int        `json:"prior_pairs"`
	ColdFlips   int        `json:"cold_flips_total"`
	WarmFlips   int        `json:"warm_flips_total"`
	WarmSkipped int        `json:"warm_skipped_total"`
	Reduction   float64    `json:"reduction"`
	Scenarios   []flipsRow `json:"scenarios"`
}

// flipsRow is one corpus scenario diagnosed cold (no prior, the exact
// fixed backward order) and warm (ranked by a prior fed with the whole
// corpus' cold verdicts). The counts are deterministic and
// machine-portable; the chain is asserted byte-identical across all
// passes before a row is emitted.
type flipsRow struct {
	Scenario    string `json:"scenario"`
	TestSet     int    `json:"test_set"`
	ColdFlips   int    `json:"cold_flips"`
	WarmFlips   int    `json:"warm_flips"`
	WarmSkipped int    `json:"warm_skipped"`
	PriorHits   int    `json:"prior_hits"`
	Chain       string `json:"chain"`
}

// diagnoseFlips reproduces one scenario serially and analyzes it with
// the given worker count and optional flip ranker.
func diagnoseFlips(sc *scenarios.Scenario, ranker core.FlipRanker, workers int) (*core.Diagnosis, *kir.Program, error) {
	prog := sc.MustProgram()
	m, err := kvm.New(prog)
	if err != nil {
		return nil, nil, err
	}
	rep, err := core.Reproduce(m, core.LIFSOptions{
		WantKind:  sc.WantKind,
		WantInstr: sc.WantInstr(),
		LeakCheck: sc.NeedsLeakCheck(),
	})
	if err != nil {
		return nil, nil, err
	}
	d, err := core.Analyze(m, rep, core.AnalysisOptions{
		LeakCheck: sc.NeedsLeakCheck(),
		Workers:   workers,
		Ranker:    ranker,
	})
	if err != nil {
		return nil, nil, err
	}
	return d, prog, nil
}

// measureFlips runs the cold and warm corpus passes behind the -flips
// artifact. Cold analyses run with no ranker — the exact fixed backward
// order — and feed every settled verdict into one shared prior store;
// warm analyses rank and skip with that store, serially and with 8
// workers. Any chain divergence or an executed+skipped/test-set mismatch
// fails the measurement itself: the artifact can only ever report a
// speedup over byte-identical diagnoses.
func measureFlips(list []*scenarios.Scenario) (*flipsArtifact, error) {
	art := &flipsArtifact{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Note: "flip counts are deterministic and machine-portable; warm chains are " +
			"asserted byte-identical to cold (serial and 8-worker) before a row is emitted",
	}
	pst := prior.NewStore(prior.Config{})

	for _, sc := range list {
		d, prog, err := diagnoseFlips(sc, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("flips-measure %s (cold): %w", sc.Name, err)
		}
		chain := d.Chain.Format(prog)
		if want, ok := scenarios.GoldenChains[sc.Name]; ok && chain != want {
			return nil, fmt.Errorf("flips-measure %s: cold chain %q does not match the golden %q", sc.Name, chain, want)
		}
		pst.ObserveDiagnosis(prog, d)
		art.Scenarios = append(art.Scenarios, flipsRow{
			Scenario:  sc.Name,
			TestSet:   d.Stats.TestSet,
			ColdFlips: d.Stats.FlipsExecuted,
			Chain:     chain,
		})
	}

	for i, sc := range list {
		row := &art.Scenarios[i]
		for _, workers := range []int{0, 8} {
			d, prog, err := diagnoseFlips(sc, pst, workers)
			if err != nil {
				return nil, fmt.Errorf("flips-measure %s (warm, workers=%d): %w", sc.Name, workers, err)
			}
			if chain := d.Chain.Format(prog); chain != row.Chain {
				return nil, fmt.Errorf("flips-measure %s: warm chain (workers=%d) %q differs from cold %q — the prior changed the diagnosis",
					sc.Name, workers, chain, row.Chain)
			}
			if got := d.Stats.FlipsExecuted + d.Stats.FlipsSkipped; got != d.Stats.TestSet {
				return nil, fmt.Errorf("flips-measure %s (workers=%d): executed %d + skipped %d != test set %d",
					sc.Name, workers, d.Stats.FlipsExecuted, d.Stats.FlipsSkipped, d.Stats.TestSet)
			}
			if workers == 0 {
				row.WarmFlips = d.Stats.FlipsExecuted
				row.WarmSkipped = d.Stats.FlipsSkipped
				row.PriorHits = d.Stats.PriorHits
			} else if d.Stats.FlipsExecuted != row.WarmFlips || d.Stats.FlipsSkipped != row.WarmSkipped {
				return nil, fmt.Errorf("flips-measure %s: 8-worker pass executed/skipped %d/%d, serial %d/%d — the skip set depends on scheduling",
					sc.Name, d.Stats.FlipsExecuted, d.Stats.FlipsSkipped, row.WarmFlips, row.WarmSkipped)
			}
		}
		art.ColdFlips += row.ColdFlips
		art.WarmFlips += row.WarmFlips
		art.WarmSkipped += row.WarmSkipped
	}
	art.PriorPairs = pst.Pairs()
	if art.ColdFlips > 0 {
		art.Reduction = 1 - float64(art.WarmFlips)/float64(art.ColdFlips)
	}
	return art, nil
}

// printFlips measures the learned flip-ordering prior over the corpus —
// a cold pass feeding one shared store, then a warm pass ranking and
// skipping with it — and writes the numbers to stdout and, with -out,
// to a JSON artifact. The measured artifact is returned so -check-flips
// can compare it against a committed baseline.
func printFlips(list []*scenarios.Scenario, outPath string) (*flipsArtifact, error) {
	art, err := measureFlips(list)
	if err != nil {
		return nil, err
	}
	t := report.Table{Title: "Learned flip ordering: cold vs warm prior (corpus, serial + 8 workers)"}
	t.Add("Scenario", "test set", "cold flips", "warm flips", "skipped", "prior hits")
	for _, r := range art.Scenarios {
		t.Add(r.Scenario, fmt.Sprint(r.TestSet), fmt.Sprint(r.ColdFlips),
			fmt.Sprint(r.WarmFlips), fmt.Sprint(r.WarmSkipped), fmt.Sprint(r.PriorHits))
	}
	t.Write(os.Stdout)
	fmt.Printf("  (corpus flip tests: %d cold, %d warm — %.0f%% skipped; %d signature pairs learned)\n\n",
		art.ColdFlips, art.WarmFlips, art.Reduction*100, art.PriorPairs)

	if outPath != "" {
		data, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	return art, nil
}

// checkFlipsArtifact is the flip-regression CI gate: it re-measures the
// -flips artifact (which itself hard-fails on any warm chain diverging
// from cold or golden) and then holds the flip counts to the committed
// baseline at baselinePath: the warm pass must skip at least 25% of the
// corpus' flip tests, and per-scenario and corpus-total counts must stay
// within ±25% of the baseline. Corpus-total failures also print the
// per-scenario rows, so a CI log pinpoints which diagnosis regressed.
// With -out, the fresh artifact is written there so CI can upload it.
func checkFlipsArtifact(list []*scenarios.Scenario, baselinePath, outPath string) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("check-flips: %w", err)
	}
	var base flipsArtifact
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("check-flips: parsing %s: %w", baselinePath, err)
	}
	art, err := printFlips(list, outPath)
	if err != nil {
		return err
	}

	const tol = 0.25
	const minReduction = 0.25
	bad := 0
	fail := func(format string, args ...any) {
		fmt.Printf("FAIL "+format+"\n", args...)
		bad++
	}

	baseRows := make(map[string]flipsRow, len(base.Scenarios))
	for _, r := range base.Scenarios {
		baseRows[r.Scenario] = r
	}
	for _, r := range art.Scenarios {
		b, ok := baseRows[r.Scenario]
		if !ok {
			fail("%-22s not in baseline %s — regenerate it with -flips -out", r.Scenario, baselinePath)
			continue
		}
		if r.ColdFlips != b.ColdFlips {
			fail("%-22s cold flips = %d, baseline %d — the test set itself changed; regenerate the baseline",
				r.Scenario, r.ColdFlips, b.ColdFlips)
		}
		lo, hi := float64(b.WarmFlips)*(1-tol), float64(b.WarmFlips)*(1+tol)
		if w := float64(r.WarmFlips); w < lo || w > hi {
			fail("%-22s warm flips = %d, baseline %d (±25%%: %.1f..%.1f)",
				r.Scenario, r.WarmFlips, b.WarmFlips, lo, hi)
		}
	}

	aggBad := false
	if art.Reduction < minReduction {
		fail("corpus warm pass skips %.0f%% of flip tests (%d cold -> %d warm), floor %.0f%% — the prior stopped paying off",
			art.Reduction*100, art.ColdFlips, art.WarmFlips, minReduction*100)
		aggBad = true
	}
	if ceil := float64(base.WarmFlips) * (1 + tol); float64(art.WarmFlips) > ceil {
		fail("corpus warm flips = %d, baseline %d (ceiling +25%%: %.0f) — warm diagnoses execute more flip tests",
			art.WarmFlips, base.WarmFlips, ceil)
		aggBad = true
	}
	if aggBad {
		printFlipsRows(base.Scenarios, art.Scenarios)
	}

	if bad > 0 {
		where := ""
		if outPath != "" {
			where = fmt.Sprintf(" (fresh artifact written to %s)", outPath)
		}
		return fmt.Errorf("check-flips: %d regressions against %s%s", bad, baselinePath, where)
	}
	fmt.Printf("check-flips: no regression against %s (chains byte-identical, %.0f%% of flip tests skipped warm, tolerance ±25%%)\n",
		baselinePath, art.Reduction*100)
	return nil
}

// printFlipsRows shows each scenario's flip counts next to the
// baseline's when a corpus-total check fails, marking the rows that
// moved, so the offending scenarios are visible in the CI log without
// a local rerun.
func printFlipsRows(baseRows, freshRows []flipsRow) {
	base := make(map[string]flipsRow, len(baseRows))
	for _, r := range baseRows {
		base[r.Scenario] = r
	}
	t := report.Table{Title: "  per-scenario flip counts (fresh vs baseline)"}
	t.Add("Scenario", "warm", "base warm", "skipped", "base skipped")
	for _, r := range freshRows {
		b := base[r.Scenario]
		name := r.Scenario
		if r.WarmFlips != b.WarmFlips || r.WarmSkipped != b.WarmSkipped {
			name = "! " + name
		}
		t.Add(name, fmt.Sprint(r.WarmFlips), fmt.Sprint(b.WarmFlips),
			fmt.Sprint(r.WarmSkipped), fmt.Sprint(b.WarmSkipped))
	}
	t.Write(os.Stdout)
}

// snapshotCycle times one checkpoint / burst / revert cycle, best of 3
// passes of `cycles` cycles, using either the CoW journal pair or the
// deep-copy baseline.
func snapshotCycle(prog *kir.Program, cycles, burst int, deep bool) (time.Duration, error) {
	best := time.Duration(0)
	for rep := 0; rep < 3; rep++ {
		m, err := kvm.New(prog)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < cycles; i++ {
			var (
				cowSnap  *kvm.Snapshot
				deepSnap *kvm.DeepSnapshot
			)
			if deep {
				deepSnap = m.DeepSnapshot()
			} else {
				cowSnap = m.Snapshot()
			}
			for s := 0; s < burst; s++ {
				if m.Failure() != nil {
					break
				}
				run := m.Runnable()
				if len(run) == 0 {
					break
				}
				if _, err := m.Step(run[0]); err != nil {
					return 0, err
				}
			}
			if deep {
				m.RestoreDeep(deepSnap)
			} else {
				m.Restore(cowSnap)
			}
		}
		if el := time.Since(start); best == 0 || el < best {
			best = el
		}
	}
	return best / time.Duration(cycles), nil
}

func printReproduction(seed int64) error {
	rows, err := eval.RunReproductionComparison(scenarios.GroupSyzkaller, seed)
	if err != nil {
		return err
	}
	t := report.Table{Title: "Reproduction cost: LIFS vs random scheduling (schedules until the reported failure)"}
	t.Add("Bug", "LIFS", "random (mean)", "random (worst seed)")
	for _, r := range rows {
		t.Add(shortTitle(r.Scenario),
			fmt.Sprint(r.LIFSScheds),
			fmt.Sprintf("%.1f", r.RandomRuns),
			fmt.Sprint(r.RandomMax))
	}
	t.Write(os.Stdout)
	fmt.Printf("  (random figures averaged over %d seeds)\n\n", eval.ReproTrials)
	return nil
}

func printAblations() error {
	rows, err := eval.RunAblations()
	if err != nil {
		return err
	}
	fmt.Println("Design-choice ablations (DESIGN.md):")
	for _, r := range rows {
		fmt.Printf("  %s [%s]\n", r.Mechanism, r.Scenario)
		fmt.Printf("    with:    %s\n", r.With)
		fmt.Printf("    without: %s\n", r.Without)
		fmt.Printf("    => %s\n", r.Verdict)
	}
	fmt.Println()
	return nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "aitia-bench:", err)
		os.Exit(1)
	}
}

func printTable2() error {
	rows, err := eval.RunGroup(scenarios.GroupCVE)
	if err != nil {
		return err
	}
	t := report.Table{Title: "Table 2: CVEs caused by a concurrency failure in Linux (reproduced)"}
	t.Add("Bug ID", "Subsystem", "LIFS time", "# sched", "Inter.", "CA time", "# sched")
	for _, r := range rows {
		t.Add(r.Scenario.Title, r.Scenario.Subsystem,
			fmt.Sprint(r.LIFSTime.Round(10_000)), fmt.Sprint(r.LIFSScheds),
			fmt.Sprint(r.Interleavings),
			fmt.Sprint(r.CATime.Round(10_000)), fmt.Sprint(r.CAScheds))
	}
	t.Write(os.Stdout)
	fmt.Println()
	return nil
}

func printTable3() error {
	rows, err := eval.RunGroup(scenarios.GroupSyzkaller)
	if err != nil {
		return err
	}
	t := report.Table{Title: "Table 3: Syzkaller concurrency bugs (reproduced)"}
	t.Add("Bug", "Subsystem", "Bug type", "Multi?", "LIFS time", "# sched", "Inter.", "CA time", "# sched", "Chain")
	for _, r := range rows {
		multi := "No"
		if r.Scenario.MultiVariable {
			multi = "Yes"
			if r.Scenario.LooselyCorrelated {
				multi = "Yes*"
			}
		}
		t.Add(shortTitle(r.Scenario), r.Scenario.Subsystem, r.Scenario.BugType, multi,
			fmt.Sprint(r.LIFSTime.Round(10_000)), fmt.Sprint(r.LIFSScheds),
			fmt.Sprint(r.Interleavings),
			fmt.Sprint(r.CATime.Round(10_000)), fmt.Sprint(r.CAScheds),
			fmt.Sprint(r.ChainRaces))
	}
	t.Write(os.Stdout)
	fmt.Println("  (* = loosely correlated variables)")
	fmt.Println()
	return nil
}

func printConciseness() error {
	rows, err := eval.RunGroup(scenarios.GroupSyzkaller)
	if err != nil {
		return err
	}
	c := eval.Concise(rows)
	fmt.Println("Conciseness (§5.2, reproduced):")
	fmt.Printf("  memory-accessing instructions per failed execution: avg %.1f (range %d..%d)\n",
		c.AvgMemAccesses, c.MinMemAccesses, c.MaxMemAccesses)
	fmt.Printf("  individual data races per failed execution:         avg %.1f (range %d..%d)\n",
		c.AvgRaces, c.MinRaces, c.MaxRaces)
	fmt.Printf("  data races in the causality chain:                  avg %.1f\n", c.AvgChainRaces)
	benign := 0
	for _, r := range rows {
		benign += r.BenignRaces
	}
	fmt.Printf("  benign races excluded across the corpus:            %d (none appear in any chain)\n\n", benign)
	return nil
}

func printBaselines(seed int64, withTable1 bool) error {
	rows, err := eval.RunBaselines(scenarios.GroupSyzkaller, seed)
	if err != nil {
		return err
	}
	t := report.Table{Title: "Baseline comparison on the Syzkaller corpus (§5.2/§5.3, reproduced)"}
	t.Add("Bug", "AITIA chain", "Kairux complete?", "CoopBL covers", "MUVI reaches?")
	var coop, muvi, kair int
	for _, r := range rows {
		if r.CoopBLComplete {
			coop++
		}
		if r.MUVIReaches {
			muvi++
		}
		if r.KairuxComplete {
			kair++
		}
		t.Add(shortTitle(r.Scenario),
			fmt.Sprintf("%d races", r.AITIAChain),
			yesNo(r.KairuxComplete),
			fmt.Sprintf("%d/%d", r.CoopBLCovered, r.AITIAChain),
			yesNo(r.MUVIReaches))
	}
	t.Write(os.Stdout)
	fmt.Printf("  AITIA diagnoses %d/%d; Kairux completes %d/%d; CoopBL completes %d/%d; MUVI reaches %d/%d\n\n",
		len(rows), len(rows), kair, len(rows), coop, len(rows), muvi, len(rows))

	if withTable1 {
		t1 := report.Table{Title: "Table 1: requirements matrix (derived from the measured corpus)"}
		t1.Add("System", "Comprehensive", "Pattern-agnostic", "Concise", "Evidence")
		for _, r := range eval.Table1(rows) {
			t1.Add(r.System, r.Comprehensive, r.PatternAgnostic, r.Concise, r.Evidence)
		}
		t1.Write(os.Stdout)
		fmt.Println()
	}
	return nil
}

func printFigure5() error {
	leaves, rep, err := eval.Figure5()
	if err != nil {
		return err
	}
	fmt.Println("Figure 5: LIFS search tree on the fig5 scenario (reproduced)")
	for i, l := range leaves {
		status := ""
		if l.Failed {
			status = "  <- failure"
		}
		fmt.Printf("  search order %2d: %s%s\n", i+1, strings.Join(l.Labels, " => "), status)
	}
	fmt.Printf("  schedules: %d, pruned-equivalent states: %d, reproduced at interleaving count %d\n\n",
		rep.Stats.Schedules, rep.Stats.Pruned, rep.Stats.Interleavings)
	return nil
}

func printChains() error {
	rows, err := eval.RunAll()
	if err != nil {
		return err
	}
	fmt.Println("Causality chains across the corpus:")
	for _, r := range rows {
		fmt.Printf("  %-22s %s\n", r.Scenario.Name, r.Chain)
	}
	fmt.Println()
	return nil
}

func shortTitle(sc *scenarios.Scenario) string {
	if i := strings.IndexByte(sc.Title, ' '); i > 0 && strings.HasPrefix(sc.Title, "#") {
		return sc.Title[:i] + " " + sc.Subsystem
	}
	return sc.Name
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
