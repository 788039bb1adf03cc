package prior

import (
	"bytes"
	"encoding/json"
	"testing"

	"aitia/internal/core"
	"aitia/internal/sched"
)

// FuzzDecode hammers the persisted-prior parser: arbitrary input must
// either decode into a store that re-encodes to an accepted snapshot, or
// fail cleanly — never panic, and never produce a store whose statistics
// disagree with its own encoding (the invariant the durable layer relies
// on after a crash).
func FuzzDecode(f *testing.F) {
	st := NewStore(Config{})
	st.Observe("load@fn[g]:r=>store@fn[g]:w", core.VerdictRootCause)
	st.Observe("load@fn[g]:r=>store@fn[g]:w", core.VerdictBenign)
	st.Observe("load@fn2[heap+1]:r=>free@fn3[heap+0]:rw|cs", core.VerdictAmbiguous)
	st.mu.Lock()
	st.kills["a->b"] = &KillStats{Killed: 3}
	st.kills["b->a"] = &KillStats{Killed: 1, Survived: 2}
	st.mu.Unlock()
	f.Add(st.Encode())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"magic":"aitia-prior","version":1,"observations":0,"pairs":{}}`))
	f.Add([]byte(`{"magic":"aitia-prior","version":1,"observations":2,"pairs":{"x":{"benign":1},"y":{"root_cause":1}}}`))
	f.Add([]byte("garbage"))
	f.Add([]byte(`{"magic":"aitia-prior","version":1,"observations":1,"pairs":{"":{"benign":1}}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data, Config{})
		if err != nil {
			return
		}
		enc := st.Encode()
		st2, err := Decode(enc, Config{})
		if err != nil {
			t.Fatalf("re-decode of accepted snapshot failed: %v\nsnapshot: %s", err, enc)
		}
		if !bytes.Equal(st2.Encode(), enc) {
			t.Fatalf("encode not a fixed point:\n first %s\nsecond %s", enc, st2.Encode())
		}
		if st2.Observations() != st.Observations() || st2.Pairs() != st.Pairs() || st2.KillPairs() != st.KillPairs() {
			t.Fatalf("round trip changed statistics")
		}
	})
}

// FuzzDelta hammers the journaled-delta parser: arbitrary input must
// never panic, an accepted delta must survive encode and decode, and
// applying the re-decoded delta must give the statistics applying the
// original gives — the invariant that makes a replayed journal restore
// the live prior exactly.
func FuzzDelta(f *testing.F) {
	prog := buildProg(f, 0)
	d := &core.Diagnosis{Tested: []core.TestedRace{
		{Race: raceOf(f, prog, "W", "R"), Verdict: core.VerdictRootCause, FlipRun: &sched.RunResult{}},
		{Race: raceOf(f, prog, "W2", "R2"), Verdict: core.VerdictBenign},
	}}
	f.Add(diagnosisDelta(prog, d).Encode())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"s":["a","b"],"v":[[0,1,0,0],[1,0,2,1]],"k":[[0,1,3,0],[1,0,0,1]]}`))
	f.Add([]byte(`{"s":["a"],"v":[[1,1,0,0]]}`))
	f.Add([]byte(`{"s":["a"],"k":[[0,0,0,0]],"v":[[0,0,0,0,7]]}`))
	f.Add([]byte(`{"s":[""],"v":[[0,1,0,0]]}`))
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Apply must tolerate rows DecodeDelta would reject.
		var raw Delta
		if json.Unmarshal(data, &raw) == nil {
			NewStore(Config{}).Apply(&raw)
		}
		d, err := DecodeDelta(data)
		if err != nil {
			return
		}
		enc := d.Encode()
		d2, err := DecodeDelta(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted delta failed: %v\ndelta: %s", err, enc)
		}
		if !bytes.Equal(d2.Encode(), enc) {
			t.Fatalf("encode not a fixed point:\n first %s\nsecond %s", enc, d2.Encode())
		}
		a, b := NewStore(Config{}), NewStore(Config{})
		a.Apply(d)
		b.Apply(d2)
		if !bytes.Equal(a.Encode(), b.Encode()) || a.Observations() != b.Observations() {
			t.Fatalf("applying the round-tripped delta changed statistics:\n first %s\nsecond %s", a.Encode(), b.Encode())
		}
	})
}
