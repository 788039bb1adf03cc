// Package faultinject is the deterministic fault-injection layer of the
// pipeline: a seed-driven plan that decides, purely as a function of
// (seed, kind, operation, key, attempt), whether an infrastructure
// operation — a snapshot restore, a schedule enforcement, a worker-VM
// launch, a queue admission — fails. It exists so the resilience
// machinery (bounded retries, job requeue, graceful degradation to
// Partial diagnoses) can be exercised continuously in tests and in the
// chaos CI job, with reproducible failures.
//
// The design has two hard requirements, mirroring internal/obs:
//
//   - Zero cost when disabled. Every entry point is a method on a
//     possibly-nil *Plan; the nil fast path performs no allocation and
//     no atomic operation, so an uninjected pipeline runs the exact
//     pre-fault hot path.
//
//   - Determinism across worker counts. A decision depends only on the
//     plan seed and the operation's stable identity (kind, op label,
//     caller-chosen key, attempt ordinal) — never on wall time,
//     goroutine scheduling or a shared mutable counter consulted in
//     nondeterministic order. Callers key operations by deterministic
//     ordinals (flip-test index, replay, submission sequence), so for a
//     fixed seed the same faults fire whether the pipeline runs serially
//     or on eight workers, and the diagnosis verdicts come out
//     identical. The one exception is worker-VM death (keyed by a
//     plan-global sequence): which VM runs a task never affects results,
//     so its keying cannot perturb a chain.
package faultinject

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Kind classifies an injection point by the infrastructure operation it
// breaks.
type Kind uint8

const (
	// KindSnapshotRestore fails a machine/memory snapshot restore (the
	// VM-revert between search and diagnosis runs).
	KindSnapshotRestore Kind = iota
	// KindEnforceStall stalls a schedule enforcement: the run aborts
	// after a deterministic number of executed steps, as if the VM had
	// stopped making progress and the per-attempt watchdog fired.
	KindEnforceStall
	// KindWorkerDeath kills a worker VM at launch (the paper's fleet of
	// reproducer/diagnoser VMs losing an instance).
	KindWorkerDeath
	// KindQueueAdmit fails a job admission into the service queue (a
	// transient hiccup surfaced to clients as 429 backpressure).
	KindQueueAdmit
	// KindPrefixRestore corrupts a pinned prefix-cache snapshot at restore
	// time: the incremental-replay cache must degrade to a from-scratch
	// replay instead of resuming from (possibly wrong) cached state.
	KindPrefixRestore

	numKinds = 5
)

// String returns the kind's metric label.
func (k Kind) String() string {
	switch k {
	case KindSnapshotRestore:
		return "snapshot-restore"
	case KindEnforceStall:
		return "enforce-stall"
	case KindWorkerDeath:
		return "worker-death"
	case KindQueueAdmit:
		return "queue-admit"
	case KindPrefixRestore:
		return "prefix-restore"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Kinds lists every injection kind, for metric exporters.
func Kinds() []Kind {
	return []Kind{
		KindSnapshotRestore, KindEnforceStall, KindWorkerDeath, KindQueueAdmit,
		KindPrefixRestore,
	}
}

// Fault is the error an injection point returns when the plan fires. It
// carries the operation's full identity, so degradation reasons stay
// machine-readable end to end.
type Fault struct {
	Kind    Kind
	Op      string // injection-point label, e.g. "ca.flip", "lifs.replay"
	Key     uint64 // caller-chosen stable identity (flip index, sequence)
	Attempt int
}

// Error renders the fault.
func (f *Fault) Error() string {
	return fmt.Sprintf("faultinject: %s during %s (key %d, attempt %d)", f.Kind, f.Op, f.Key, f.Attempt)
}

// Is reports whether err is (or wraps) an injected fault — the error
// class that retries, requeues and degradation apply to, as opposed to
// genuine pipeline bugs, which must keep failing loudly.
func Is(err error) bool {
	var f *Fault
	return errors.As(err, &f)
}

// Stats is a point-in-time snapshot of a plan's activity, indexed by
// Kind for the per-kind arrays.
type Stats struct {
	Checks    [numKinds]uint64 // decision points consulted
	Fired     [numKinds]uint64 // faults injected
	Retries   uint64           // re-attempts of faulted operations (attempt > 0 checks)
	Exhausted uint64           // operations that ran out of retry budget
}

// counters holds a plan's atomics. Fork shares them, so a requeued job's
// derived plan still feeds the same aitia_fault_* metrics.
type counters struct {
	checks    [numKinds]atomic.Uint64
	fired     [numKinds]atomic.Uint64
	retries   atomic.Uint64
	exhausted atomic.Uint64
	seq       atomic.Uint64
}

// Plan is a deterministic fault plan. The zero value is not usable; a
// nil *Plan is: every method no-ops (and Check always passes), so
// callers thread an optional plan without branching.
type Plan struct {
	seed int64
	rate [numKinds]float64
	c    *counters
}

// NewPlan returns a plan injecting every kind at the given rate
// (fraction of decision points in [0, 1]) under the given seed.
func NewPlan(seed int64, rate float64) *Plan {
	p := &Plan{seed: seed, c: &counters{}}
	for k := range p.rate {
		p.rate[k] = rate
	}
	return p
}

// SetRate overrides one kind's injection rate and returns the plan, so
// tests can isolate a single failure class (rate 1 forces it, rate 0
// disables it).
func (p *Plan) SetRate(k Kind, rate float64) *Plan {
	p.rate[k] = rate
	return p
}

// Seed returns the plan seed (0 when disabled).
func (p *Plan) Seed() int64 {
	if p == nil {
		return 0
	}
	return p.seed
}

// Enabled reports whether faults can fire.
func (p *Plan) Enabled() bool { return p != nil }

// Fork derives a plan whose decisions are independent of the parent's
// (seed remixed with epoch) but whose counters are shared. The service
// forks per requeue attempt: a deterministically faulted job would
// otherwise fail identically on every requeue, which is not how the
// transient failures requeue exists for behave.
func (p *Plan) Fork(epoch uint64) *Plan {
	if p == nil || epoch == 0 {
		return p
	}
	fp := &Plan{seed: int64(mix(uint64(p.seed), 0x9e3779b97f4a7c15^epoch)), c: p.c}
	fp.rate = p.rate
	return fp
}

// Seq returns a fresh plan-global sequence number, the key for
// operations with no natural stable identity (worker-VM launches, whose
// outcome never affects diagnosis results). 0 when disabled.
func (p *Plan) Seq() uint64 {
	if p == nil {
		return 0
	}
	return p.c.seq.Add(1)
}

// Check decides whether the operation identified by (kind, op, key,
// attempt) fails under this plan, returning the *Fault when it does.
// The decision is a pure function of the identity: re-checking the same
// identity always answers the same, and attempt is part of it — which
// is what makes bounded retries converge (the chance that every attempt
// of one operation fires is rate^attempts).
func (p *Plan) Check(k Kind, op string, key uint64, attempt int) error {
	if p == nil {
		return nil
	}
	p.c.checks[k].Add(1)
	if attempt > 0 {
		p.c.retries.Add(1)
	}
	if !p.fires(k, op, key, attempt) {
		return nil
	}
	p.c.fired[k].Add(1)
	return &Fault{Kind: k, Op: op, Key: key, Attempt: attempt}
}

// StallStep is Check for KindEnforceStall, returning the executed-step
// count at which the stall manifests (the enforcement runs normally up
// to it, then aborts), or -1 when the plan does not fire there.
func (p *Plan) StallStep(op string, key uint64, attempt int) int {
	if p == nil {
		return -1
	}
	p.c.checks[KindEnforceStall].Add(1)
	if attempt > 0 {
		p.c.retries.Add(1)
	}
	if !p.fires(KindEnforceStall, op, key, attempt) {
		return -1
	}
	p.c.fired[KindEnforceStall].Add(1)
	// Stall within the first few dozen steps: early enough that every
	// scenario run reaches it, varied enough to exercise mid-run aborts.
	return int(p.hash(KindEnforceStall, op, key, attempt, 1) % 48)
}

// NoteExhausted records that an operation ran out of retry budget.
func (p *Plan) NoteExhausted() {
	if p == nil {
		return
	}
	p.c.exhausted.Add(1)
}

// Stats snapshots the plan's counters (zero value when disabled).
func (p *Plan) Stats() Stats {
	var st Stats
	if p == nil {
		return st
	}
	for k := 0; k < numKinds; k++ {
		st.Checks[k] = p.c.checks[k].Load()
		st.Fired[k] = p.c.fired[k].Load()
	}
	st.Retries = p.c.retries.Load()
	st.Exhausted = p.c.exhausted.Load()
	return st
}

// fires evaluates the plan's decision function.
func (p *Plan) fires(k Kind, op string, key uint64, attempt int) bool {
	r := p.rate[k]
	if r <= 0 {
		return false
	}
	if r >= 1 {
		return true
	}
	// 53 uniform bits → [0, 1).
	u := float64(p.hash(k, op, key, attempt, 0)>>11) / float64(uint64(1)<<53)
	return u < r
}

// hash mixes the operation identity under the seed. salt separates the
// fire decision from derived draws (the stall step).
func (p *Plan) hash(k Kind, op string, key uint64, attempt int, salt uint64) uint64 {
	// FNV-1a over the op label, allocation-free.
	h := uint64(14695981039346656037)
	for i := 0; i < len(op); i++ {
		h ^= uint64(op[i])
		h *= 1099511628211
	}
	h = mix(h, uint64(p.seed))
	h = mix(h, uint64(k)|salt<<8)
	h = mix(h, key)
	h = mix(h, uint64(attempt))
	return h
}

// mix is the splitmix64 finalizer over a ^ b.
func mix(a, b uint64) uint64 {
	z := a ^ b
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
