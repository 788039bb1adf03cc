// Package obs is the execution-tracing layer of the pipeline: a
// lightweight span tracer threaded through the LIFS search phases, the
// worker pools, the causality flip tests and the service job lifecycle.
//
// The design has two hard requirements:
//
//   - Zero cost when disabled. Every entry point is a method on a
//     possibly-nil *Tracer (or on the Span value it returned); the nil
//     fast path performs no allocation and no atomic operation, so an
//     untraced search runs the exact PR-2 hot path.
//
//   - Deterministic event ordering under parallel search. Spans carry
//     two kinds of payload: Args are deterministic counters (unit
//     ordinal, preemption budget, verdict, ...) that are identical for
//     Workers=1 and Workers=N, while Info carries timing and placement
//     facts (wall durations, worker slot) that are not. Producers commit
//     spans in canonical order (unit ordinal, flip index, slice index) —
//     never in completion order — and mark spans whose very existence
//     depends on scheduling (pool dispatch) as Volatile. The Canonical
//     projection drops Info, timing and Volatile spans, and is what the
//     determinism tests and diffable artifacts compare.
//
// Traces export as Chrome trace-event JSON (chrome://tracing, Perfetto);
// see chrome.go. Summarize aggregates spans per category/name for
// ResultSummary and /metrics.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Arg is one key/value pair attached to a span.
type Arg struct {
	Key string
	Val int64
}

// Event is one completed span. Start and Dur are wall-clock offsets
// relative to the tracer's creation (the trace epoch).
type Event struct {
	// Cat groups spans by subsystem ("lifs", "ca", "pool", "manager",
	// "job"). The Chrome export maps each category to its own process
	// row.
	Cat string
	// Name is the span type within the category ("phase", "probe",
	// "task", "flip", ...).
	Name string
	// Track is the deterministic lane (Chrome tid) the span renders on:
	// unit ordinal, flip index, slice index — never a goroutine or
	// worker identity.
	Track int64
	// Start and Dur are wall-clock measurements relative to the trace
	// epoch. They vary run to run and are excluded from Canonical.
	Start, Dur time.Duration
	// Args are deterministic counters: identical across worker counts.
	Args []Arg
	// Info are informational values (worker slot, schedule counts under
	// parallel pruning, byte costs) excluded from Canonical.
	Info []Arg
	// Volatile marks spans whose existence depends on runtime
	// scheduling (e.g. pool dispatch of units that a lower-ordinal
	// winner would have cut off). Volatile spans are excluded from
	// Canonical entirely.
	Volatile bool
}

// Tracer collects spans. The zero value is not usable; a nil *Tracer is:
// every method no-ops, so callers thread an optional tracer without
// branching. All methods are safe for concurrent use.
type Tracer struct {
	epoch time.Time

	mu     sync.Mutex
	events []Event
}

// New returns an enabled tracer whose epoch is now.
func New() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// Enabled reports whether spans are being collected.
func (t *Tracer) Enabled() bool { return t != nil }

// Now returns the wall offset since the trace epoch (0 when disabled).
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// Emit appends a completed event. Producers that must commit in
// canonical order measure spans locally (Tracer.Now) and Emit them from
// their single-threaded merge step.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Events returns a snapshot copy of the collected events.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Adopt appends a child tracer's events, shifting their Start offsets by
// the difference of the two epochs so wall times stay aligned. The
// manager uses per-slice child tracers and adopts only the winning
// slice's, keeping the merged trace independent of slice completion
// order.
func (t *Tracer) Adopt(child *Tracer) {
	if t == nil || child == nil {
		return
	}
	shift := child.epoch.Sub(t.epoch)
	child.mu.Lock()
	evs := append([]Event(nil), child.events...)
	child.mu.Unlock()
	t.mu.Lock()
	for _, ev := range evs {
		ev.Start += shift
		t.events = append(t.events, ev)
	}
	t.mu.Unlock()
}

// Span is an in-flight span. It is a value: beginning a span on a nil
// tracer costs nothing and End on it is a no-op.
type Span struct {
	t     *Tracer
	start time.Duration
	ev    Event
}

// Begin opens a span; close it with End. The nil fast path returns a
// dead Span without touching the clock.
func (t *Tracer) Begin(cat, name string, track int64) Span {
	if t == nil {
		return Span{}
	}
	return Span{
		t:     t,
		start: time.Since(t.epoch),
		ev:    Event{Cat: cat, Name: name, Track: track},
	}
}

// Arg attaches a deterministic counter to the span.
func (sp *Span) Arg(key string, val int64) {
	if sp.t == nil {
		return
	}
	sp.ev.Args = append(sp.ev.Args, Arg{Key: key, Val: val})
}

// Info attaches an informational (non-canonical) value to the span.
func (sp *Span) Info(key string, val int64) {
	if sp.t == nil {
		return
	}
	sp.ev.Info = append(sp.ev.Info, Arg{Key: key, Val: val})
}

// End closes the span and commits it.
func (sp *Span) End() {
	if sp.t == nil {
		return
	}
	sp.ev.Start = sp.start
	sp.ev.Dur = time.Since(sp.t.epoch) - sp.start
	sp.t.Emit(sp.ev)
}

// Canonical projects events onto their deterministic content: one line
// per non-volatile event, in commit order, with category, name, track
// and Args — no timing, no Info. Two runs of the same search are
// byte-identical under Canonical regardless of worker count; the
// determinism tests and golden artifacts compare exactly this.
func Canonical(events []Event) []string {
	var out []string
	for _, ev := range events {
		if ev.Volatile {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s/%s tid=%d", ev.Cat, ev.Name, ev.Track)
		for _, a := range ev.Args {
			fmt.Fprintf(&b, " %s=%d", a.Key, a.Val)
		}
		out = append(out, b.String())
	}
	return out
}

// SpanStat aggregates the spans of one (category, name) pair.
type SpanStat struct {
	Cat   string `json:"cat"`
	Name  string `json:"name"`
	Count int    `json:"count"`
	Total int64  `json:"total_ns"`
}

// Summarize aggregates events per (category, name), sorted by category
// then name — the per-phase summary surfaced in ResultSummary and
// /metrics.
func Summarize(events []Event) []SpanStat {
	type key struct{ cat, name string }
	agg := make(map[key]*SpanStat)
	for _, ev := range events {
		k := key{ev.Cat, ev.Name}
		st, ok := agg[k]
		if !ok {
			st = &SpanStat{Cat: ev.Cat, Name: ev.Name}
			agg[k] = st
		}
		st.Count++
		st.Total += ev.Dur.Nanoseconds()
	}
	out := make([]SpanStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cat != out[j].Cat {
			return out[i].Cat < out[j].Cat
		}
		return out[i].Name < out[j].Name
	})
	return out
}
