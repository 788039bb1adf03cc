package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"aitia"
	"aitia/internal/durable"
)

// Journal ops: every job state transition the service commits is first
// appended to the write-ahead journal as one of these records. Replay
// at startup folds them, last-wins per job, back into the job table.
const (
	opSubmit   = "submit"
	opStart    = "start"
	opRequeue  = "requeue"
	opDone     = "done"
	opFailed   = "failed"
	opCanceled = "canceled"
)

// jobRecord is one journal entry. Submit records carry the full request
// (enough to re-resolve and re-run the job after a crash); terminal
// records carry the outcome and, with the prior enabled, the job's
// prior delta. All other fields are progress metadata.
type jobRecord struct {
	Op  string    `json:"op"`
	ID  string    `json:"id"`
	Seq uint64    `json:"seq,omitempty"` // submission sequence, for nextID recovery
	At  time.Time `json:"at"`

	// Submit fields.
	Req      *Request `json:"req,omitempty"`
	Key      string   `json:"key,omitempty"` // result-cache key
	CacheHit bool     `json:"cache_hit,omitempty"`

	// Progress/terminal fields.
	Epoch       int                  `json:"epoch,omitempty"` // requeue count = fault-plan fork epoch
	Error       string               `json:"error,omitempty"`
	Reason      string               `json:"reason,omitempty"` // machine-readable failure class
	Summary     *aitia.ResultSummary `json:"summary,omitempty"`
	QueueWaitMS int64                `json:"queue_wait_ms,omitempty"`
	RunMS       int64                `json:"run_ms,omitempty"`
	// Prior is the encoded prior.Delta of a terminal record: what the
	// job taught the flip prior. The journal is the service's only
	// durable copy of it. A job whose prior is enabled always carries
	// one (an empty one is "{}"), so a terminal record without it comes
	// from an older build. Kept raw so that a malformed delta drops
	// only itself at replay, not the record.
	Prior json.RawMessage `json:"prior,omitempty"`
}

// journalAppend commits one record to the WAL. Callers hold s.mu, so
// journal order equals state-transition order. A nil journal (no
// DataDir) makes this a no-op; append errors are swallowed — durability
// is best-effort and must never fail a live job transition. With the
// prior enabled, a terminal record without a delta gets an empty one.
func (s *Service) journalAppend(rec jobRecord) {
	if s.journal == nil {
		return
	}
	if s.prior != nil && rec.Prior == nil && terminalOp(rec.Op) {
		rec.Prior = emptyDelta
	}
	rec.At = time.Now()
	payload, err := json.Marshal(rec)
	if err != nil {
		return
	}
	_ = s.journal.Append(payload)
}

var emptyDelta = json.RawMessage("{}")

func terminalOp(op string) bool {
	return op == opDone || op == opFailed || op == opCanceled
}

// replayedJob is the folded journal state of one job.
type replayedJob struct {
	submit jobRecord // the (latest) submit record
	state  State
	epoch  int
	err    string
	reason string
	sum    *aitia.ResultSummary
	wait   int64
	run    int64
	delta  json.RawMessage // the latest terminal record's prior delta
}

// doneRecord is a journaled done record, decoded and as journaled:
// compaction re-emits the payload verbatim instead of re-encoding the
// result summary.
type doneRecord struct {
	jobRecord
	raw []byte
}

// replayState is the outcome of folding the whole journal.
type replayState struct {
	jobs   map[string]*replayedJob
	order  []string     // submit order (first submit wins the slot)
	warm   []doneRecord // terminal done records in journal order, for cache warming
	maxSeq uint64
}

// foldJournal replays the WAL into a job table. Unknown ops and records
// for unknown jobs are skipped (forward compatibility); a re-submit of
// a known id resets the job (the submit barrier in the live path makes
// that impossible today, but the journal format allows it).
func foldJournal(j *durable.Journal) (*replayState, error) {
	st := &replayState{jobs: make(map[string]*replayedJob)}
	err := j.Replay(func(payload []byte) error {
		var rec jobRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return nil // tolerate alien records
		}
		if rec.ID == "" {
			return nil
		}
		if rec.Op == opSubmit {
			if _, known := st.jobs[rec.ID]; !known {
				st.order = append(st.order, rec.ID)
			}
			st.jobs[rec.ID] = &replayedJob{submit: rec, state: StateQueued}
			if rec.Seq > st.maxSeq {
				st.maxSeq = rec.Seq
			}
			return nil
		}
		rj, known := st.jobs[rec.ID]
		if !known {
			return nil
		}
		switch rec.Op {
		case opStart:
			rj.state = StateRunning
			rj.wait = rec.QueueWaitMS
		case opRequeue:
			rj.state = StateQueued
			rj.epoch = rec.Epoch
			rj.err = ""
		case opDone:
			rj.state = StateDone
			rj.sum = rec.Summary
			rj.run = rec.RunMS
			rj.delta = rec.Prior
			st.warm = append(st.warm, doneRecord{rec, payload})
		case opFailed:
			rj.state = StateFailed
			rj.err = rec.Error
			rj.reason = rec.Reason
			rj.run = rec.RunMS
			rj.delta = rec.Prior
		case opCanceled:
			rj.state = StateCanceled
			rj.err = rec.Error
			rj.delta = rec.Prior
		}
		return nil
	})
	if errors.Is(err, durable.ErrCorrupt) {
		// Mid-segment corruption: the salvaged prefix is all the
		// history there is. Start from it rather than refusing to start
		// at all; the corruption is counted in the journal stats.
		return st, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: journal replay: %w", err)
	}
	return st, nil
}

// snapshotRecord renders a replayed job back into the minimal record
// pair compaction keeps: its submit record, then (when it progressed)
// its latest state record. Emitting in submit order keeps the compacted
// journal's cache-warming order equal to the original's for terminal
// results, because warmCache re-sorts nothing — and the final ordering
// among done jobs is preserved by warm order, handled separately.
func (rj *replayedJob) records() []jobRecord {
	recs := []jobRecord{rj.submit}
	switch rj.state {
	case StateQueued:
		if rj.epoch > 0 {
			recs = append(recs, jobRecord{Op: opRequeue, ID: rj.submit.ID, Epoch: rj.epoch, At: rj.submit.At})
		}
	case StateRunning:
		recs = append(recs, jobRecord{Op: opStart, ID: rj.submit.ID, QueueWaitMS: rj.wait, At: rj.submit.At})
	case StateDone:
		recs = append(recs, jobRecord{Op: opDone, ID: rj.submit.ID, Summary: rj.sum, RunMS: rj.run, Prior: rj.delta, At: rj.submit.At})
	case StateFailed:
		recs = append(recs, jobRecord{Op: opFailed, ID: rj.submit.ID, Error: rj.err, Reason: rj.reason, RunMS: rj.run, Prior: rj.delta, At: rj.submit.At})
	case StateCanceled:
		recs = append(recs, jobRecord{Op: opCanceled, ID: rj.submit.ID, Error: rj.err, Prior: rj.delta, At: rj.submit.At})
	}
	return recs
}

// compactJournal rewrites the WAL to the minimal record set that
// reproduces the current job table: per job, a submit record plus its
// latest state — for a terminal job, its final terminal record with
// the prior delta that record carries. Done jobs are emitted last, in
// their original terminal order, so a replay of the compacted journal
// warms the LRU cache in the same order as a replay of the full one.
func compactJournal(j *durable.Journal, st *replayState) error {
	return j.Compact(func(emit func([]byte) error) error {
		emitRec := func(rec jobRecord) error {
			payload, err := json.Marshal(rec)
			if err != nil {
				return err
			}
			return emit(payload)
		}
		doneOrder := make(map[string]int, len(st.warm))
		for i, rec := range st.warm {
			doneOrder[rec.ID] = i // last terminal done wins
		}
		for _, id := range st.order {
			rj := st.jobs[id]
			if rj.state == StateDone {
				if err := emitRec(rj.submit); err != nil {
					return err
				}
				continue // terminal record emitted below, in warm order
			}
			for _, rec := range rj.records() {
				if err := emitRec(rec); err != nil {
					return err
				}
			}
		}
		for i, rec := range st.warm {
			if doneOrder[rec.ID] != i {
				continue // superseded terminal record
			}
			if rj, ok := st.jobs[rec.ID]; !ok || rj.state != StateDone {
				continue
			}
			if err := emit(rec.raw); err != nil {
				return err
			}
		}
		return nil
	})
}
