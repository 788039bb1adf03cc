package prior

import (
	"encoding/json"
	"errors"
	"fmt"

	"aitia/internal/core"
	"aitia/internal/kir"
	"aitia/internal/sched"
)

// Delta is what one diagnosis taught a store: the verdict and kill
// counts it adds. ObserveDiagnosis builds one and folds it in with
// Apply; the service journals it with the job's outcome and replays it
// through Apply on restart, so live learning and recovery count along
// one path and a restored store encodes to the same bytes as the live
// one.
//
// The JSON form names each signature once and refers to it by index:
//
//	{"s":["sigA","sigB"],"v":[[0,0,1,0],[1,1,0,0]],"k":[[0,1,1,0]]}
//
// A verdict row is (signature, benign, root-cause, ambiguous); a kill
// row is (flipped signature, other signature, killed, survived). A
// chain member's signature recurs in one kill row per tested race, so
// indexing keeps a delta a fraction of the size "sigA->sigB" keys
// would take — it is written once per job into the journal.
type Delta struct {
	Sigs     []string    `json:"s,omitempty"`
	Verdicts [][4]uint64 `json:"v,omitempty"`
	Kills    [][4]uint64 `json:"k,omitempty"`
}

// Encode serializes the delta (the indexed JSON form above).
func (d *Delta) Encode() []byte {
	data, err := json.Marshal(d)
	if err != nil {
		// Strings and fixed-size integer rows cannot fail to marshal.
		panic(err)
	}
	return data
}

// DecodeDelta parses an encoded delta. Malformed input — bad JSON, an
// empty signature, a row naming a signature index out of range —
// returns an error; callers drop the delta.
func DecodeDelta(data []byte) (*Delta, error) {
	var d Delta
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("prior: decode delta: %w", err)
	}
	for _, sig := range d.Sigs {
		if sig == "" {
			return nil, errors.New("prior: decode delta: empty signature")
		}
	}
	n := uint64(len(d.Sigs))
	for _, r := range d.Verdicts {
		if r[0] >= n {
			return nil, fmt.Errorf("prior: decode delta: verdict row names signature %d of %d", r[0], n)
		}
	}
	for _, r := range d.Kills {
		if r[0] >= n || r[1] >= n {
			return nil, fmt.Errorf("prior: decode delta: kill row names signatures %d, %d of %d", r[0], r[1], n)
		}
	}
	return &d, nil
}

// Apply folds a delta into the store. Counts add, so applying the same
// deltas in any order yields the same statistics. Rows naming a
// signature index out of range (DecodeDelta rejects them) and all-zero
// rows add nothing.
func (s *Store) Apply(d *Delta) {
	if d == nil {
		return
	}
	n := uint64(len(d.Sigs))
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range d.Verdicts {
		if r[0] >= n || r[1]|r[2]|r[3] == 0 {
			continue
		}
		st := s.pairs[d.Sigs[r[0]]]
		if st == nil {
			st = &PairStats{}
			s.pairs[d.Sigs[r[0]]] = st
		}
		st.Benign += r[1]
		st.RootCause += r[2]
		st.Ambiguous += r[3]
		s.observations += r[1] + r[2] + r[3]
	}
	for _, r := range d.Kills {
		if r[0] >= n || r[1] >= n || r[2]|r[3] == 0 {
			continue
		}
		key := killKey(d.Sigs[r[0]], d.Sigs[r[1]])
		ks := s.kills[key]
		if ks == nil {
			ks = &KillStats{}
			s.kills[key] = ks
		}
		ks.Killed += r[2]
		ks.Survived += r[3]
	}
}

// diagnosisDelta collects a completed analysis's evidence: every
// executed flip's final (post-ambiguity) verdict, and for every executed
// chain member, its kill relation against each other tested race (did
// the flip make that pair disappear?). Prior-skipped races are excluded
// — their verdict came from the store, and feeding it back would let
// the prior reinforce itself without evidence.
func diagnosisDelta(prog *kir.Program, d *core.Diagnosis) *Delta {
	b := deltaBuilder{
		index:   make(map[string]uint64),
		verdict: make(map[uint64]int),
		kill:    make(map[[2]uint64]int),
	}
	if d == nil {
		return &b.d
	}
	sigs := make([]string, len(d.Tested))
	for i, tr := range d.Tested {
		sigs[i] = Signature(prog, tr.Race)
	}
	for i, tr := range d.Tested {
		if tr.PriorSkipped || !b.addVerdict(sigs[i], tr.Verdict) {
			continue
		}
		if tr.FlipRun == nil || (tr.Verdict != core.VerdictRootCause && tr.Verdict != core.VerdictAmbiguous) {
			continue
		}
		for j, other := range d.Tested {
			if j != i {
				b.addKill(sigs[i], sigs[j], !sched.RaceOccurred(tr.FlipRun, other.Race))
			}
		}
	}
	return &b.d
}

// deltaBuilder aggregates observations into a Delta, numbering
// signatures and rows in first-use order.
type deltaBuilder struct {
	d       Delta
	index   map[string]uint64 // signature -> index into d.Sigs
	verdict map[uint64]int    // signature index -> row of d.Verdicts
	kill    map[[2]uint64]int // signature index pair -> row of d.Kills
}

func (b *deltaBuilder) sig(sig string) uint64 {
	i, ok := b.index[sig]
	if !ok {
		i = uint64(len(b.d.Sigs))
		b.index[sig] = i
		b.d.Sigs = append(b.d.Sigs, sig)
	}
	return i
}

// addVerdict counts a settled verdict; it reports false (and counts
// nothing) for VerdictUnknown, which says nothing about the race.
func (b *deltaBuilder) addVerdict(sig string, v core.Verdict) bool {
	col := 0
	switch v {
	case core.VerdictBenign:
		col = 1
	case core.VerdictRootCause:
		col = 2
	case core.VerdictAmbiguous:
		col = 3
	default:
		return false
	}
	i := b.sig(sig)
	row, ok := b.verdict[i]
	if !ok {
		row = len(b.d.Verdicts)
		b.verdict[i] = row
		b.d.Verdicts = append(b.d.Verdicts, [4]uint64{i})
	}
	b.d.Verdicts[row][col]++
	return true
}

func (b *deltaBuilder) addKill(from, to string, killed bool) {
	k := [2]uint64{b.sig(from), b.sig(to)}
	row, ok := b.kill[k]
	if !ok {
		row = len(b.d.Kills)
		b.kill[k] = row
		b.d.Kills = append(b.d.Kills, [4]uint64{k[0], k[1]})
	}
	if killed {
		b.d.Kills[row][2]++
	} else {
		b.d.Kills[row][3]++
	}
}
