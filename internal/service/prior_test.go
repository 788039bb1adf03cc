package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aitia"
	"aitia/internal/core"
	"aitia/internal/durable"
	"aitia/internal/kir"
	"aitia/internal/obs"
	"aitia/internal/prior"
)

// runReq submits one request and waits for it to complete as done.
func runReq(t *testing.T, s *Service, req Request) JobStatus {
	t.Helper()
	st, err := s.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final, err := s.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("job state = %q (error %q), want done", final.State, final.Error)
	}
	return final
}

// runCorpusJob runs one real diagnosis (default pipeline Diagnoser).
func runCorpusJob(t *testing.T, s *Service) JobStatus {
	t.Helper()
	return runReq(t, s, Request{Scenario: "cve-2017-15649"})
}

// learningJobs are real diagnoses, blind and report-driven. Each runs
// against the prior the ones before it warmed: the third settles flips
// without a run, the last teaches the prior a scenario it has not seen.
func learningJobs(t *testing.T) []Request {
	t.Helper()
	report, err := aitia.ScenarioReport("fig1", aitia.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return []Request{
		{Scenario: "cve-2017-15649"},
		{Scenario: "fig1", Report: report},
		{Scenario: "cve-2017-15649", Options: RequestOptions{MaxInterleavings: 5000}},
		{Scenario: "cve-2016-8655"},
	}
}

// TestPriorLearnsAndPersists: completed diagnoses — blind, report
// driven, with prior skips, plus a cache hit — feed the learned flip
// prior, their deltas are journaled with the jobs' outcomes, and the
// next service incarnation on the same data dir restores a prior that
// encodes to exactly the live one's bytes.
func TestPriorLearnsAndPersists(t *testing.T) {
	dir := t.TempDir()
	s1 := openDurable(t, dir, Config{Workers: 1})
	skipped := 0
	for _, req := range learningJobs(t) {
		skipped += runReq(t, s1, req).Result.FlipsSkipped
	}
	if !runCorpusJob(t, s1).CacheHit {
		t.Fatal("resubmission was not a cache hit")
	}
	if skipped == 0 {
		t.Error("no job settled a flip from the prior")
	}
	if kp := s1.Prior().KillPairs(); kp == 0 {
		t.Error("completed diagnoses recorded no kill relations")
	}
	want, wantPairs := s1.Prior().Encode(), s1.Prior().Pairs()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	s2 := openDurable(t, dir, Config{Workers: 1, Diagnoser: instantDiagnoser("x")})
	defer s2.Shutdown(context.Background())
	if got := s2.Prior().Encode(); !bytes.Equal(got, want) {
		t.Errorf("restored prior differs from the live one:\n got %s\nwant %s", got, want)
	}
	h := s2.Health()
	if h.PriorPairs != wantPairs || h.PriorReason != prior.ReasonLoaded {
		t.Errorf("Health prior = %d pairs, reason %q; want %d, %q",
			h.PriorPairs, h.PriorReason, wantPairs, prior.ReasonLoaded)
	}
}

// TestPriorRestoreExactAfterCrash: a job that taught the live prior
// but died with its service before journaling its outcome leaves no
// trace in the restored prior, and its rerun counts its evidence once:
// the prior ends equal to that of an uninterrupted run.
func TestPriorRestoreExactAfterCrash(t *testing.T) {
	jobs := learningJobs(t)
	earlier, last := jobs[:len(jobs)-1], jobs[len(jobs)-1]

	ref := openDurable(t, t.TempDir(), Config{Workers: 1})
	for _, req := range jobs {
		runReq(t, ref, req)
	}
	want, wantObs := ref.Prior().Encode(), ref.Prior().Observations()
	if err := ref.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	s1 := openDurable(t, dir, Config{Workers: 1})
	for _, req := range earlier {
		runReq(t, s1, req)
	}
	journaled := s1.Prior().Encode()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// s2 runs the last job's diagnosis, which teaches its live prior,
	// then dies before the job's terminal record is written.
	never := make(chan struct{})
	learned := make(chan struct{})
	var s2 *Service
	learnThenHang := func(ctx context.Context, prog *kir.Program, req Request, tr *obs.Tracer, fi FaultContext) (*aitia.ResultSummary, error) {
		if _, _, err := s2.runManager(ctx, prog, req, tr, fi); err != nil {
			t.Errorf("runManager: %v", err)
		}
		close(learned)
		<-never
		return nil, context.Canceled
	}
	s2 = openDurable(t, dir, Config{Workers: 1, Diagnoser: learnThenHang})
	st, err := s2.Submit(last)
	if err != nil {
		t.Fatal(err)
	}
	<-learned
	if bytes.Equal(s2.Prior().Encode(), journaled) {
		t.Fatal("the in-flight job taught the live prior nothing")
	}
	// Simulated SIGKILL: abandon s2 without Shutdown.

	// The reopened prior is the fold of the journaled terminal jobs.
	// Its worker parks on the requeued job, so the prior stays put.
	s3 := openDurable(t, dir, Config{Workers: 1, Diagnoser: blockingDiagnoser(never)})
	if got := s3.Prior().Encode(); !bytes.Equal(got, journaled) {
		t.Errorf("prior after the crash differs from the journaled jobs' fold:\n got %s\nwant %s", got, journaled)
	}
	waitState(t, s3, st.ID, StateRunning)
	// A second crash, then a real rerun.

	s4 := openDurable(t, dir, Config{Workers: 1})
	defer s4.Shutdown(context.Background())
	if final, err := s4.Wait(context.Background(), st.ID); err != nil || final.State != StateDone {
		t.Fatalf("requeued job: state %q, err %v (error %q), want done", final.State, err, final.Error)
	}
	if got := s4.Prior().Observations(); got != wantObs {
		t.Errorf("Observations = %d after the rerun, want %d as in an uninterrupted run", got, wantObs)
	}
	if got := s4.Prior().Encode(); !bytes.Equal(got, want) {
		t.Errorf("prior after the rerun differs from an uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// legacyDataDir builds a data dir as older builds left it: done records
// without prior deltas (written here by a service with the prior
// disabled, which journals none) plus, when snapshot is non-nil, a
// whole-prior snapshot in the checkpoint store. It returns the summary
// of the journaled job.
func legacyDataDir(t *testing.T, dir string, snapshot []byte) *aitia.ResultSummary {
	t.Helper()
	s := openDurable(t, dir, Config{Workers: 1, PriorMinSupport: -1})
	sum := runCorpusJob(t, s).Result
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if snapshot != nil {
		ck, err := durable.OpenCheckpointStore(filepath.Join(dir, "checkpoints"), false)
		if err != nil {
			t.Fatal(err)
		}
		if err := ck.Save(prior.CheckpointKey, 1, snapshot); err != nil {
			t.Fatal(err)
		}
	}
	return sum
}

// TestPriorLegacySnapshotLoads: a data dir of an older build opens with
// its snapshot loaded (the delta-less records' evidence is in it, so
// their summaries are not fed again), new jobs add on top, and a
// restart restores snapshot plus journaled deltas exactly. The
// snapshot is read, never rewritten.
func TestPriorLegacySnapshotLoads(t *testing.T) {
	dir := t.TempDir()
	legacy := prior.NewStore(prior.Config{})
	legacy.Observe("load@legacy[g]:r=>store@legacy[g]:w", core.VerdictBenign)
	snapshot := legacy.Encode()
	legacyDataDir(t, dir, snapshot)

	s1 := openDurable(t, dir, Config{Workers: 1})
	if got := s1.Prior().LoadReason(); got != prior.ReasonLoaded {
		t.Errorf("LoadReason = %q, want %q", got, prior.ReasonLoaded)
	}
	if got := s1.Prior().Encode(); !bytes.Equal(got, snapshot) {
		t.Errorf("opened prior = %s, want the legacy snapshot %s", got, snapshot)
	}
	runReq(t, s1, Request{Scenario: "fig1"})
	if s1.Prior().Pairs() <= legacy.Pairs() || s1.Prior().Observations() <= legacy.Observations() {
		t.Errorf("new job added nothing on top of the snapshot: %d pairs, %d observations",
			s1.Prior().Pairs(), s1.Prior().Observations())
	}
	want := s1.Prior().Encode()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := openDurable(t, dir, Config{Workers: 1, Diagnoser: instantDiagnoser("x")})
	defer s2.Shutdown(context.Background())
	if got := s2.Prior().Encode(); !bytes.Equal(got, want) {
		t.Errorf("restored prior differs from the live one:\n got %s\nwant %s", got, want)
	}
	ck, err := durable.OpenCheckpointStore(filepath.Join(dir, "checkpoints"), false)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ck.Load(prior.CheckpointKey, 1); err != nil || !bytes.Equal(got, snapshot) {
		t.Errorf("legacy snapshot changed on disk (err %v)", err)
	}
}

// TestPriorCorruptCheckpointRebuildsFromJournal: a corrupt legacy
// snapshot degrades with a machine-readable reason, and the summaries
// of the delta-less records rebuild the verdict statistics (summaries
// carry no flip-run footprints, so no kill relations come back).
func TestPriorCorruptCheckpointRebuildsFromJournal(t *testing.T) {
	dir := t.TempDir()
	sum := legacyDataDir(t, dir, []byte("corrupt"))
	var want uint64
	for _, v := range sum.Verdicts {
		if v.Race.Sig != "" && !v.Race.Prior && v.Verdict != "unknown" {
			want++
		}
	}
	if want == 0 {
		t.Fatal("journaled summary carries no verdicts")
	}

	s2 := openDurable(t, dir, Config{Workers: 1, Diagnoser: instantDiagnoser("x")})
	defer s2.Shutdown(context.Background())
	if reason := s2.Prior().LoadReason(); !strings.HasPrefix(reason, prior.ReasonInvalid) {
		t.Errorf("LoadReason = %q, want %q prefix", reason, prior.ReasonInvalid)
	}
	if got := s2.Prior().Observations(); got != want {
		t.Errorf("journal rebuild restored %d observations, want the summary's %d", got, want)
	}
	if kp := s2.Prior().KillPairs(); kp != 0 {
		t.Errorf("journal rebuild restored %d kill pairs; summaries carry none", kp)
	}
	if !strings.HasPrefix(s2.Health().PriorReason, prior.ReasonInvalid) {
		t.Errorf("Health().PriorReason = %q, want %q prefix", s2.Health().PriorReason, prior.ReasonInvalid)
	}
}

// TestPriorMalformedDeltaDropsOnlyTheDelta: a terminal record whose
// delta names a signature out of range, or is not a delta at all, still
// restores its job and result; only that delta is dropped (and its
// summary is not fed in its place — the record is not an old build's).
func TestPriorMalformedDeltaDropsOnlyTheDelta(t *testing.T) {
	dir := t.TempDir()
	jnl, err := durable.OpenJournal(filepath.Join(dir, "journal"), durable.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	good := prior.Delta{Sigs: []string{"good"}, Verdicts: [][4]uint64{{0, 1, 0, 0}}}
	deltas := []string{`{"s":["bad"],"v":[[3,1,0,0]]}`, `{"s":7}`, string(good.Encode())}
	sum := &aitia.ResultSummary{Chain: "A1 => B1", Verdicts: []aitia.RaceVerdict{
		{Race: aitia.Race{Sig: "from-summary"}, Verdict: "benign"},
	}}
	for i, delta := range deltas {
		id := fmt.Sprintf("job-%06d", i+1)
		req := Request{Scenario: "cve-2017-15649", Options: RequestOptions{StepBudget: 10000 + i}}
		for _, rec := range []jobRecord{
			{Op: opSubmit, ID: id, Seq: uint64(i + 1), Req: &req, Key: "key-" + id},
			{Op: opDone, ID: id, Summary: sum, Prior: json.RawMessage(delta)},
		} {
			payload, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := jnl.Append(payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	s := openDurable(t, dir, Config{Workers: 1, Diagnoser: instantDiagnoser("x")})
	defer s.Shutdown(context.Background())
	for i := range deltas {
		id := fmt.Sprintf("job-%06d", i+1)
		st, err := s.Job(id)
		if err != nil || st.State != StateDone || st.Result == nil || st.Result.Chain != "A1 => B1" {
			t.Errorf("%s: state %q, result %+v, err %v; want its journaled result", id, st.State, st.Result, err)
		}
	}
	restored := prior.NewStore(prior.Config{})
	restored.Apply(&good)
	if got, want := s.Prior().Encode(), restored.Encode(); !bytes.Equal(got, want) {
		t.Errorf("restored prior = %s, want only the well-formed delta %s", got, want)
	}
}

// TestPriorNotCheckpointed guards the write path: jobs journal their
// prior deltas and never rewrite a whole-prior snapshot.
func TestPriorNotCheckpointed(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, Config{Workers: 1, Diagnoser: instantDiagnoser("A1 => B1")})
	for i := 1; i <= 5; i++ {
		st, err := submitN(t, s, i)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(context.Background(), st.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if saves := s.Metrics().Checkpoints.Stats().Saves; saves != 0 {
		t.Errorf("checkpoint saves = %d after 5 jobs, want 0", saves)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoints", prior.CheckpointKey+".ckpt")); !os.IsNotExist(err) {
		t.Errorf("prior snapshot written (stat err %v)", err)
	}
}

// TestPriorDisabled: a negative PriorMinSupport disables the prior
// entirely — no store, no health fields.
func TestPriorDisabled(t *testing.T) {
	s := openDurable(t, t.TempDir(), Config{Workers: 1, Diagnoser: instantDiagnoser("x"), PriorMinSupport: -1})
	defer s.Shutdown(context.Background())
	if s.Prior() != nil {
		t.Error("Prior() != nil with PriorMinSupport < 0")
	}
	h := s.Health()
	if h.PriorPairs != 0 || h.PriorReason != "" {
		t.Errorf("health advertises a disabled prior: %+v", h)
	}
}
