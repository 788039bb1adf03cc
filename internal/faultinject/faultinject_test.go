package faultinject

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestCheckDeterministic(t *testing.T) {
	p := NewPlan(42, 0.3)
	q := NewPlan(42, 0.3)
	for key := uint64(0); key < 200; key++ {
		for attempt := 0; attempt < 3; attempt++ {
			a := p.Check(KindSnapshotRestore, "ca.flip", key, attempt)
			b := q.Check(KindSnapshotRestore, "ca.flip", key, attempt)
			if (a == nil) != (b == nil) {
				t.Fatalf("same identity, different decision at key=%d attempt=%d", key, attempt)
			}
		}
	}
}

func TestCheckOrderIndependent(t *testing.T) {
	// The decision for one identity must not depend on how many or which
	// other identities were checked before it — that is what makes
	// parallel and serial runs inject the same faults.
	p := NewPlan(7, 0.5)
	want := p.Check(KindEnforceStall, "lifs.replay", 123, 0)
	q := NewPlan(7, 0.5)
	for key := uint64(0); key < 1000; key++ {
		q.Check(KindEnforceStall, "lifs.replay", key+1000, 0)
	}
	got := q.Check(KindEnforceStall, "lifs.replay", 123, 0)
	if (want == nil) != (got == nil) {
		t.Fatalf("decision changed with interleaved checks")
	}
}

func TestRateExtremesAndKindIsolation(t *testing.T) {
	p := NewPlan(1, 0).SetRate(KindWorkerDeath, 1)
	for key := uint64(0); key < 50; key++ {
		if err := p.Check(KindQueueAdmit, "service.admit", key, 0); err != nil {
			t.Fatalf("rate-0 kind fired: %v", err)
		}
		err := p.Check(KindWorkerDeath, "lifs.worker-vm", key, 0)
		if err == nil {
			t.Fatalf("rate-1 kind did not fire at key %d", key)
		}
		var f *Fault
		if !errors.As(err, &f) || f.Kind != KindWorkerDeath || f.Key != key {
			t.Fatalf("bad fault identity: %v", err)
		}
	}
}

func TestRateRoughlyHolds(t *testing.T) {
	p := NewPlan(99, 0.2)
	fired := 0
	const n = 5000
	for key := uint64(0); key < n; key++ {
		if p.Check(KindSnapshotRestore, "x", key, 0) != nil {
			fired++
		}
	}
	got := float64(fired) / n
	if got < 0.15 || got > 0.25 {
		t.Fatalf("rate 0.2 produced %.3f", got)
	}
}

func TestAttemptChangesDecision(t *testing.T) {
	// Retries must be able to succeed: across many keys that fire at
	// attempt 0, a healthy fraction must pass at attempt 1.
	p := NewPlan(3, 0.5)
	firedBoth, firedFirst := 0, 0
	for key := uint64(0); key < 2000; key++ {
		if p.Check(KindSnapshotRestore, "y", key, 0) == nil {
			continue
		}
		firedFirst++
		if p.Check(KindSnapshotRestore, "y", key, 1) != nil {
			firedBoth++
		}
	}
	if firedFirst == 0 {
		t.Fatal("no faults at rate 0.5")
	}
	if firedBoth == firedFirst {
		t.Fatal("attempt number does not influence the decision; retries can never succeed")
	}
}

func TestForkChangesDecisionsSharesStats(t *testing.T) {
	p := NewPlan(11, 0.5)
	f := p.Fork(1)
	if f == p {
		t.Fatal("Fork(1) returned the parent plan")
	}
	same := 0
	const n = 500
	for key := uint64(0); key < n; key++ {
		a := p.Check(KindQueueAdmit, "z", key, 0) != nil
		b := f.Check(KindQueueAdmit, "z", key, 0) != nil
		if a == b {
			same++
		}
	}
	if same == n {
		t.Fatal("forked plan makes identical decisions")
	}
	st := p.Stats()
	if got := st.Checks[KindQueueAdmit]; got != 2*n {
		t.Fatalf("fork does not share counters: %d checks, want %d", got, 2*n)
	}
	if p.Fork(0) != p {
		t.Fatal("Fork(0) must be the identity")
	}
}

func TestStallStep(t *testing.T) {
	p := NewPlan(5, 1)
	s := p.StallStep("sched.enforce", 9, 0)
	if s < 0 || s >= 48 {
		t.Fatalf("stall step %d out of range", s)
	}
	if again := p.StallStep("sched.enforce", 9, 0); again != s {
		t.Fatalf("stall step not deterministic: %d then %d", s, again)
	}
	var none *Plan
	if none.StallStep("sched.enforce", 9, 0) != -1 {
		t.Fatal("nil plan must not stall")
	}
}

func TestNilPlanSafe(t *testing.T) {
	var p *Plan
	if p.Check(KindSnapshotRestore, "op", 1, 0) != nil {
		t.Fatal("nil plan fired")
	}
	if p.Enabled() || p.Seed() != 0 || p.Seq() != 0 {
		t.Fatal("nil plan accessors not zero")
	}
	p.NoteExhausted()
	if st := p.Stats(); st != (Stats{}) {
		t.Fatalf("nil plan stats: %+v", st)
	}
	if p.Fork(3) != nil {
		t.Fatal("nil plan fork must stay nil")
	}
}

func TestNilPlanZeroAlloc(t *testing.T) {
	var p *Plan
	allocs := testing.AllocsPerRun(1000, func() {
		if p.Check(KindSnapshotRestore, "ca.flip", 7, 0) != nil {
			t.Fatal("fired")
		}
		if p.StallStep("sched.enforce", 7, 0) != -1 {
			t.Fatal("stalled")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil fast path allocates: %v allocs/op", allocs)
	}
}

func BenchmarkNilPlanCheck(b *testing.B) {
	var p *Plan
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if p.Check(KindSnapshotRestore, "ca.flip", uint64(i), 0) != nil {
			b.Fatal("fired")
		}
	}
}

func BenchmarkPlanCheck(b *testing.B) {
	p := NewPlan(1, 0.1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Check(KindSnapshotRestore, "ca.flip", uint64(i), 0)
	}
}

func TestDoRetriesFaultsOnly(t *testing.T) {
	ctx := context.Background()
	rp := RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond}

	// Injected faults are retried until an attempt passes.
	calls := 0
	err := Do(ctx, nil, rp, func(ctx context.Context, attempt int) error {
		calls++
		if attempt < 2 {
			return &Fault{Kind: KindSnapshotRestore, Op: "t", Key: 1, Attempt: attempt}
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("got err=%v calls=%d, want nil/3", err, calls)
	}

	// Non-fault errors fail fast.
	calls = 0
	boom := errors.New("boom")
	err = Do(ctx, nil, rp, func(ctx context.Context, attempt int) error { calls++; return boom })
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("got err=%v calls=%d, want boom/1", err, calls)
	}
}

func TestDoExhaustion(t *testing.T) {
	p := NewPlan(1, 1)
	rp := RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond}
	calls := 0
	err := Do(context.Background(), p, rp, func(ctx context.Context, attempt int) error {
		calls++
		return &Fault{Kind: KindEnforceStall, Op: "t", Key: 2, Attempt: attempt}
	})
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if !errors.Is(err, ErrExhausted) || !Is(err) {
		t.Fatalf("exhaustion error %v must match ErrExhausted and Is", err)
	}
	if st := p.Stats(); st.Exhausted != 1 {
		t.Fatalf("exhausted counter = %d, want 1", st.Exhausted)
	}
}

func TestDoAttemptTimeout(t *testing.T) {
	rp := RetryPolicy{
		MaxAttempts:    3,
		BaseBackoff:    time.Microsecond,
		MaxBackoff:     time.Microsecond,
		AttemptTimeout: 5 * time.Millisecond,
	}
	calls := 0
	err := Do(context.Background(), nil, rp, func(ctx context.Context, attempt int) error {
		calls++
		if attempt == 0 {
			<-ctx.Done() // overrun the per-attempt deadline
			return ctx.Err()
		}
		return nil
	})
	if err != nil || calls != 2 {
		t.Fatalf("got err=%v calls=%d, want nil/2", err, calls)
	}
}

func TestDoParentCancelWins(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	rp := RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Hour, MaxBackoff: time.Hour}
	err := Do(ctx, nil, rp, func(ctx context.Context, attempt int) error {
		cancel()
		return &Fault{Kind: KindWorkerDeath, Op: "t", Key: 3, Attempt: attempt}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestDoSkipBackoffCutsSleep(t *testing.T) {
	skip := make(chan struct{})
	close(skip)
	rp := RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Hour, MaxBackoff: time.Hour, SkipBackoff: skip}
	start := time.Now()
	calls := 0
	err := Do(context.Background(), nil, rp, func(ctx context.Context, attempt int) error {
		calls++
		if attempt < 2 {
			return &Fault{Kind: KindQueueAdmit, Op: "t", Key: 4, Attempt: attempt}
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("got err=%v calls=%d, want nil/3", err, calls)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("backoff not skipped: took %v", elapsed)
	}
}

func TestKindStrings(t *testing.T) {
	if len(Kinds()) != numKinds {
		t.Fatalf("Kinds() lists %d kinds, want %d", len(Kinds()), numKinds)
	}
	seen := make(map[string]bool)
	for _, k := range Kinds() {
		s := k.String()
		if s == "" || s == fmt.Sprintf("kind(%d)", uint8(k)) {
			t.Fatalf("kind %d has no label", uint8(k))
		}
		if seen[s] {
			t.Fatalf("label %q used by two kinds", s)
		}
		seen[s] = true
	}
}
