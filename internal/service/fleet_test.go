package service

import (
	"context"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aitia/internal/durable"
)

// TestRequeueExhaustedReason: a job that burns its whole requeue budget
// fails with the distinct machine-readable reason, visible on the job
// status, in Health and as its own metric — not just a generic error.
func TestRequeueExhaustedReason(t *testing.T) {
	var runs atomic.Int32
	s := New(Config{
		Workers:     1,
		MaxRequeues: 2,
		Diagnoser:   faultingDiagnoser(1<<30, &runs, nil),
	})
	defer s.Shutdown(context.Background())

	st, err := submitN(t, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed {
		t.Fatalf("state = %q, want failed", final.State)
	}
	if final.FailReason != ReasonRequeueExhausted {
		t.Errorf("fail_reason = %q, want %q", final.FailReason, ReasonRequeueExhausted)
	}
	if got := s.Metrics().JobsRequeueExhausted.Value(); got != 1 {
		t.Errorf("jobs_requeue_exhausted = %d, want 1", got)
	}
	if h := s.Health(); h.RequeueExhausted != 1 {
		t.Errorf("health requeue_exhausted = %d, want 1", h.RequeueExhausted)
	}
}

// TestRequeueExhaustedReasonSurvivesRestart: the terminal reason is
// journaled and replays with the job.
func TestRequeueExhaustedReasonSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int32
	s1 := openDurable(t, dir, Config{Workers: 1, MaxRequeues: 1, Diagnoser: faultingDiagnoser(1<<30, &runs, nil)})
	st, err := submitN(t, s1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if final, _ := s1.Wait(context.Background(), st.ID); final.FailReason != ReasonRequeueExhausted {
		t.Fatalf("fail_reason before restart = %q, want %q", final.FailReason, ReasonRequeueExhausted)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := openDurable(t, dir, Config{Workers: 1, Diagnoser: instantDiagnoser("unused")})
	defer s2.Shutdown(context.Background())
	got, err := s2.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateFailed || got.FailReason != ReasonRequeueExhausted {
		t.Errorf("recovered job = state %q reason %q, want failed/%q", got.State, got.FailReason, ReasonRequeueExhausted)
	}
}

// TestReadyTracksRecovery: a restarted service is not ready while
// journal-recovered jobs are still waiting to be picked back up, and
// becomes ready once the queue has drained into the workers. Readiness
// is routability, distinct from /healthz liveness: a recovering node is
// alive but a fleet balancer must not route new work at it yet.
func TestReadyTracksRecovery(t *testing.T) {
	dir := t.TempDir()
	never := make(chan struct{})
	s1 := openDurable(t, dir, Config{Workers: 1, Diagnoser: blockingDiagnoser(never)})
	var ids []string
	for i := 1; i <= 3; i++ {
		st, err := submitN(t, s1, i)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	waitState(t, s1, ids[0], StateRunning)
	// Crash: the journal holds one running and two queued jobs.

	release := make(chan struct{})
	s2 := openDurable(t, dir, Config{Workers: 1, Diagnoser: blockingDiagnoser(release)})
	defer s2.Shutdown(context.Background())
	if ok, reason := s2.Ready(); ok || reason != "recovering" {
		t.Errorf("Ready during recovery = %v/%q, want false/recovering", ok, reason)
	}
	if h := s2.Health(); h.Status != "ok" {
		t.Errorf("healthz during recovery = %q — recovery must not look dead, only unroutable", h.Status)
	}
	close(release)
	for _, id := range ids {
		if _, err := s2.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	if ok, reason := s2.Ready(); !ok {
		t.Errorf("Ready after recovery = false (%s), want true", reason)
	}
}

// TestReadyFalseWhileDraining: Shutdown flips readiness before the
// drain finishes, so the balancer stops routing while in-flight work
// completes.
func TestReadyFalseWhileDraining(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{Workers: 1, Diagnoser: blockingDiagnoser(release)})
	st, err := submitN(t, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning)
	if ok, _ := s.Ready(); !ok {
		t.Fatal("Ready = false before shutdown")
	}

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ok, reason := s.Ready(); !ok {
			if reason != "draining" {
				t.Errorf("reason = %q, want draining", reason)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Ready never flipped during drain")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentHealthReadsRaceTransitions: Health and Ready are read
// concurrently with the recovery-pickup and drain transitions; run
// under -race this pins the synchronization of the recovering gauge and
// the drain flag.
func TestConcurrentHealthReadsRaceTransitions(t *testing.T) {
	dir := t.TempDir()
	never := make(chan struct{})
	s1 := openDurable(t, dir, Config{Workers: 1, Diagnoser: blockingDiagnoser(never)})
	for i := 1; i <= 4; i++ {
		if _, err := submitN(t, s1, i); err != nil {
			t.Fatal(err)
		}
	}

	s2 := openDurable(t, dir, Config{Workers: 2, Diagnoser: instantDiagnoser("A1 => B1")})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = s2.Health()
					_, _ = s2.Ready()
				}
			}
		}()
	}
	// Recovery pickup and the drain both race the readers.
	time.Sleep(10 * time.Millisecond)
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if ok, reason := s2.Ready(); ok || reason != "draining" {
		t.Errorf("Ready after shutdown = %v/%q, want false/draining", ok, reason)
	}
}

// legacyLeaseRecords are branch-lease payloads in the shape older fleet
// builds journaled next to job records: op "lease" and no job id.
var legacyLeaseRecords = []string{
	`{"op":"lease","action":"grant","lease_key":"branch|deadbeef|k=2|ord=1","node":"n2","fleet_epoch":1,"fence":1,"ttl_ms":2000}`,
	`{"op":"lease","action":"renew","lease_key":"branch|deadbeef|k=2|ord=1","node":"n2","fleet_epoch":1,"fence":1,"ttl_ms":2000}`,
	`{"op":"lease","action":"expire","lease_key":"branch|deadbeef|k=2|ord=1","node":"n2","fleet_epoch":1,"fence":1}`,
	`{"op":"lease","action":"grant","lease_key":"branch|deadbeef|k=2|ord=1","node":"n3","fleet_epoch":1,"fence":2,"ttl_ms":2000}`,
}

// TestRecoveryWithLegacyLeaseRecords: a data dir whose WAL interleaves
// job records with branch-lease records (written by builds that leased
// LIFS branches to fleet peers) still opens. Every job recovers, and
// compaction drops the lease records.
func TestRecoveryWithLegacyLeaseRecords(t *testing.T) {
	dir := t.TempDir()
	never := make(chan struct{})
	s1 := openDurable(t, dir, Config{Workers: 1, NodeID: "n1", Diagnoser: blockingDiagnoser(never)})
	var ids []string
	for i := 1; i <= 3; i++ {
		st, err := submitN(t, s1, i)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		if err := s1.journal.Append([]byte(legacyLeaseRecords[i-1])); err != nil {
			t.Fatal(err)
		}
	}
	waitState(t, s1, ids[0], StateRunning)
	if err := s1.journal.Append([]byte(legacyLeaseRecords[3])); err != nil {
		t.Fatal(err)
	}
	// Crash with the lease records in the WAL.

	s2 := openDurable(t, dir, Config{Workers: 1, NodeID: "n1", Diagnoser: instantDiagnoser("A1 => B1")})
	if got := s2.Metrics().JobsRecovered.Value(); got != uint64(len(ids)) {
		t.Errorf("jobs_recovered = %d, want %d (lease records must not derail job replay)", got, len(ids))
	}
	for _, id := range ids {
		if st, err := s2.Wait(context.Background(), id); err != nil || st.State != StateDone {
			t.Errorf("job %s: %v / %+v, want done", id, err, st)
		}
	}
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	jnl, err := durable.OpenJournal(filepath.Join(dir, "journal"), durable.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	jobRecs := 0
	if err := jnl.Replay(func(payload []byte) error {
		if strings.Contains(string(payload), `"op":"lease"`) {
			t.Errorf("lease record survived compaction: %s", payload)
		} else {
			jobRecs++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if jobRecs == 0 {
		t.Error("journal holds no job records after recovery")
	}
}

// TestJobStatusCarriesNode: in fleet mode every status names the
// replica that accepted the job — the operator-facing trace of routing
// and handoff decisions.
func TestJobStatusCarriesNode(t *testing.T) {
	s := New(Config{Workers: 1, NodeID: "n2", Diagnoser: instantDiagnoser("A1 => B1")})
	defer s.Shutdown(context.Background())
	st, err := submitN(t, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Node != "n2" {
		t.Errorf("status node = %q, want n2", st.Node)
	}
	if h := s.Health(); h.Node != "n2" {
		t.Errorf("health node = %q, want n2", h.Node)
	}
}
