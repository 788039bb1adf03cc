package prior

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"aitia/internal/core"
	"aitia/internal/durable"
	"aitia/internal/kir"
	"aitia/internal/sched"
)

// buildProg builds a two-thread program racing on the globals "flag" and
// "other", with pad extra single-instruction functions emitted FIRST so
// that every instruction ID shifts between otherwise-identical programs
// — the cross-program transfer case the signature must survive.
func buildProg(t testing.TB, pad int) *kir.Program {
	t.Helper()
	b := kir.NewBuilder()
	b.Var("flag", 0)
	b.Var("other", 0)
	for i := 0; i < pad; i++ {
		f := b.Func("pad" + string(rune('a'+i)))
		f.Store(kir.G("other"), kir.Imm(7))
		f.Ret()
	}
	w := b.Func("writer")
	w.Store(kir.G("flag"), kir.Imm(1)).L("W")
	w.Store(kir.G("other"), kir.Imm(1)).L("W2")
	w.Ret()
	r := b.Func("reader")
	r.Load(kir.R1, kir.G("flag")).L("R")
	r.Load(kir.R2, kir.G("other")).L("R2")
	r.Ret()
	b.Thread("A", "writer")
	b.Thread("B", "reader")
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return prog
}

func raceOf(t testing.TB, prog *kir.Program, first, second string) sched.Race {
	t.Helper()
	f, ok := prog.ByLabel(first)
	if !ok {
		t.Fatalf("no instruction labeled %q", first)
	}
	s, ok := prog.ByLabel(second)
	if !ok {
		t.Fatalf("no instruction labeled %q", second)
	}
	return sched.Race{
		First:  sched.Site{Thread: "A", Instr: f.ID},
		Second: sched.Site{Thread: "B", Instr: s.ID},
	}
}

// TestSignatureCrossProgramStability: the signature must be identical
// across programs with the same code structure but different instruction
// IDs, thread schedules and padding — and must differ between races on
// different variables in the same functions.
func TestSignatureCrossProgramStability(t *testing.T) {
	p1 := buildProg(t, 0)
	p2 := buildProg(t, 3)

	s1 := Signature(p1, raceOf(t, p1, "W", "R"))
	s2 := Signature(p2, raceOf(t, p2, "W", "R"))
	if s1 != s2 {
		t.Errorf("signature not stable across programs:\n  p1: %s\n  p2: %s", s1, s2)
	}
	if o := Signature(p1, raceOf(t, p1, "W2", "R2")); o == s1 {
		t.Errorf("races on different variables share signature %s", s1)
	}

	// Pair-level relations must be part of the identity.
	r := raceOf(t, p1, "W", "R")
	r.Phantom = true
	if ph := Signature(p1, r); ph == s1 || !strings.HasSuffix(ph, "|ph") {
		t.Errorf("phantom marker missing: %s", ph)
	}
	r.Phantom = false
	r.CSLock = 42
	if cs := Signature(p1, r); cs == s1 || !strings.HasSuffix(cs, "|cs") {
		t.Errorf("critical-section marker missing: %s", cs)
	}

	// Dynamic identity must NOT leak into the signature: same static
	// pair at different steps, addresses, or thread IDs is one signature.
	r2 := raceOf(t, p1, "W", "R")
	r2.FirstStep, r2.SecondStep, r2.Addr = 17, 23, 0xdead
	if Signature(p1, r2) != s1 {
		t.Errorf("dynamic fields leaked into the signature: %s != %s", Signature(p1, r2), s1)
	}
}

// TestAggregationDeterminism: any interleaving of the same observations
// — shuffled serial orders and a concurrent feed — must produce
// byte-identical encodings.
func TestAggregationDeterminism(t *testing.T) {
	prog := buildProg(t, 0)
	type obs struct {
		sig string
		v   core.Verdict
	}
	var feed []obs
	sigWR := Signature(prog, raceOf(t, prog, "W", "R"))
	sigW2 := Signature(prog, raceOf(t, prog, "W2", "R2"))
	for i := 0; i < 50; i++ {
		feed = append(feed, obs{sigWR, core.VerdictRootCause})
		feed = append(feed, obs{sigW2, core.VerdictBenign})
		if i%5 == 0 {
			feed = append(feed, obs{sigWR, core.VerdictAmbiguous})
		}
	}

	reference := NewStore(Config{})
	for _, o := range feed {
		reference.Observe(o.sig, o.v)
	}
	want := reference.Encode()

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]obs(nil), feed...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		st := NewStore(Config{})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(shuffled); i += 4 {
					st.Observe(shuffled[i].sig, shuffled[i].v)
				}
			}(w)
		}
		wg.Wait()
		if got := st.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: concurrent shuffled feed diverged:\n got %s\nwant %s", trial, got, want)
		}
	}
}

// TestEncodeDecodeRoundTrip: a store with verdict and kill statistics
// survives Encode/Decode bit-exactly.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	prog := buildProg(t, 0)
	st := NewStore(Config{MinSupport: 2})
	st.Observe(Signature(prog, raceOf(t, prog, "W", "R")), core.VerdictRootCause)
	st.Observe(Signature(prog, raceOf(t, prog, "W2", "R2")), core.VerdictBenign)

	// A diagnosis whose executed chain member has an empty flip run:
	// every other pair disappears, populating the kill relation.
	d := &core.Diagnosis{Tested: []core.TestedRace{
		{Race: raceOf(t, prog, "W", "R"), Verdict: core.VerdictRootCause, FlipRun: &sched.RunResult{}},
		{Race: raceOf(t, prog, "W2", "R2"), Verdict: core.VerdictBenign, FlipRun: &sched.RunResult{}},
	}}
	st.ObserveDiagnosis(prog, d)
	if st.KillPairs() == 0 {
		t.Fatal("ObserveDiagnosis recorded no kill relations")
	}

	enc := st.Encode()
	st2, err := Decode(enc, Config{MinSupport: 2})
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(st2.Encode(), enc) {
		t.Errorf("round trip diverged:\n got %s\nwant %s", st2.Encode(), enc)
	}
	if st2.Observations() != st.Observations() || st2.Pairs() != st.Pairs() || st2.KillPairs() != st.KillPairs() {
		t.Errorf("round trip lost statistics: %d/%d/%d, want %d/%d/%d",
			st2.Observations(), st2.Pairs(), st2.KillPairs(),
			st.Observations(), st.Pairs(), st.KillPairs())
	}
}

// TestSelfReinforcementExcluded: prior-skipped and unknown verdicts must
// not be folded back into the store.
func TestSelfReinforcementExcluded(t *testing.T) {
	prog := buildProg(t, 0)
	st := NewStore(Config{})
	d := &core.Diagnosis{Tested: []core.TestedRace{
		{Race: raceOf(t, prog, "W", "R"), Verdict: core.VerdictBenign, PriorSkipped: true},
		{Race: raceOf(t, prog, "W2", "R2"), Verdict: core.VerdictUnknown},
	}}
	st.ObserveDiagnosis(prog, d)
	if st.Observations() != 0 || st.Pairs() != 0 {
		t.Errorf("skipped/unknown verdicts were recorded: %d observations, %d pairs",
			st.Observations(), st.Pairs())
	}
}

// TestRankFlipsSettlement: benign settlement needs MinSupport unanimous
// benign verdicts; root-cause settlement additionally needs a complete
// unanimous kill row; a single disagreeing observation disables both.
func TestRankFlipsSettlement(t *testing.T) {
	prog := buildProg(t, 0)
	races := []sched.Race{raceOf(t, prog, "W", "R"), raceOf(t, prog, "W2", "R2")}
	sig0, sig1 := Signature(prog, races[0]), Signature(prog, races[1])

	// Empty store: no hits, neutral scores, nothing settled.
	empty := NewStore(Config{})
	for i, p := range empty.RankFlips(prog, races) {
		if p.Hit || p.SettledBenign || p.SettledRootCause || p.Score != 0.5 {
			t.Errorf("empty store prior %d = %+v, want neutral", i, p)
		}
	}

	// Unanimous benign at MinSupport settles; one root-cause breaks it.
	st := NewStore(Config{MinSupport: 2})
	st.Observe(sig1, core.VerdictBenign)
	if p := st.RankFlips(prog, races)[1]; p.SettledBenign {
		t.Error("settled benign below MinSupport")
	}
	st.Observe(sig1, core.VerdictBenign)
	if p := st.RankFlips(prog, races)[1]; !p.SettledBenign {
		t.Error("unanimous benign at MinSupport not settled")
	}
	st.Observe(sig1, core.VerdictRootCause)
	if p := st.RankFlips(prog, races)[1]; p.SettledBenign {
		t.Error("conflicting verdict did not disable the benign skip")
	}

	// Root-cause settlement: unanimous verdicts alone are not enough —
	// the kill row against every unsettled candidate must be complete.
	st2 := NewStore(Config{})
	st2.Observe(sig0, core.VerdictRootCause)
	if p := st2.RankFlips(prog, races)[0]; p.SettledRootCause {
		t.Error("settled root-cause without a kill row")
	}
	d := &core.Diagnosis{Tested: []core.TestedRace{
		{Race: races[0], Verdict: core.VerdictRootCause, FlipRun: &sched.RunResult{}},
		{Race: races[1], Verdict: core.VerdictRootCause, FlipRun: &sched.RunResult{}},
	}}
	st2.ObserveDiagnosis(prog, d)
	got := st2.RankFlips(prog, races)
	for i, p := range got {
		if !p.SettledRootCause {
			t.Fatalf("prior %d not settled root-cause with a complete kill row: %+v", i, p)
		}
		for j, k := range p.Kills {
			if j != i && !k {
				t.Errorf("prior %d kill row: candidate %d not killed", i, j)
			}
		}
	}
}

// TestLoadDegradesToFixedOrder: an absent or corrupt persisted prior
// must degrade to an empty store — exact fixed-order analysis — with a
// machine-readable reason.
func TestLoadDegradesToFixedOrder(t *testing.T) {
	dir := t.TempDir()
	cs, err := durable.OpenCheckpointStore(dir, false)
	if err != nil {
		t.Fatalf("open checkpoint store: %v", err)
	}

	st, reason := LoadFrom(cs, Config{})
	if reason != ReasonAbsent || st.Pairs() != 0 {
		t.Errorf("absent prior: reason %q, %d pairs; want %q, 0", reason, st.Pairs(), ReasonAbsent)
	}
	if st.LoadReason() != ReasonAbsent {
		t.Errorf("LoadReason = %q, want %q", st.LoadReason(), ReasonAbsent)
	}

	corruptions := map[string][]byte{
		"garbage":      []byte("not json at all"),
		"wrong magic":  []byte(`{"magic":"evil","version":1,"pairs":{}}`),
		"wrong count":  []byte(`{"magic":"aitia-prior","version":1,"observations":9,"pairs":{"x":{"benign":1}}}`),
		"empty sig":    []byte(`{"magic":"aitia-prior","version":1,"observations":1,"pairs":{"":{"benign":1}}}`),
		"empty kills":  []byte(`{"magic":"aitia-prior","version":1,"observations":1,"pairs":{"x":{"benign":1}},"kills":{"x->y":{}}}`),
		"bad version":  []byte(`{"magic":"aitia-prior","version":99,"pairs":{}}`),
		"null killrow": []byte(`{"magic":"aitia-prior","version":1,"observations":1,"pairs":{"x":{"benign":1}},"kills":{"x->y":null}}`),
	}
	for name, payload := range corruptions {
		if err := cs.Save(CheckpointKey, checkpointVersion, payload); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		st, reason := LoadFrom(cs, Config{})
		if !strings.HasPrefix(reason, ReasonInvalid) {
			t.Errorf("%s: reason %q, want %q prefix", name, reason, ReasonInvalid)
		}
		if st.Pairs() != 0 || st.Observations() != 0 {
			t.Errorf("%s: corrupt prior did not degrade to empty: %d pairs", name, st.Pairs())
		}
		prog := buildProg(t, 0)
		races := []sched.Race{raceOf(t, prog, "W", "R")}
		for _, p := range st.RankFlips(prog, races) {
			if p.SettledBenign || p.SettledRootCause || p.Hit {
				t.Errorf("%s: degraded store still settles flips: %+v", name, p)
			}
		}
	}

	// And a valid snapshot loads.
	good := NewStore(Config{})
	good.Observe("sig", core.VerdictBenign)
	if err := good.SaveTo(cs); err != nil {
		t.Fatalf("SaveTo: %v", err)
	}
	st, reason = LoadFrom(cs, Config{})
	if reason != ReasonLoaded || st.Pairs() != 1 || st.Observations() != 1 {
		t.Errorf("valid prior: reason %q, %d pairs, %d observations; want loaded/1/1",
			reason, st.Pairs(), st.Observations())
	}
}

// TestDeltaReplayMatchesLive: the deltas ObserveDiagnosis returns,
// encoded, decoded and applied in any order to a store holding the same
// starting snapshot, reproduce the live store byte for byte.
func TestDeltaReplayMatchesLive(t *testing.T) {
	prog := buildProg(t, 0)
	w, w2 := raceOf(t, prog, "W", "R"), raceOf(t, prog, "W2", "R2")
	live := NewStore(Config{})
	live.Observe(Signature(prog, w2), core.VerdictBenign)
	base := live.Encode()

	diags := []*core.Diagnosis{
		{Tested: []core.TestedRace{
			{Race: w, Verdict: core.VerdictRootCause, FlipRun: &sched.RunResult{}},
			{Race: w2, Verdict: core.VerdictBenign, FlipRun: &sched.RunResult{}},
		}},
		{Tested: []core.TestedRace{
			{Race: w, Verdict: core.VerdictAmbiguous, FlipRun: &sched.RunResult{}},
			{Race: w2, Verdict: core.VerdictBenign, PriorSkipped: true},
		}},
		{Tested: []core.TestedRace{{Race: w2, Verdict: core.VerdictUnknown}}},
		nil,
	}
	var journal [][]byte
	for _, d := range diags {
		journal = append(journal, live.ObserveDiagnosis(prog, d).Encode())
	}
	if got := string(journal[2]); got != "{}" {
		t.Errorf("delta of an unknown-only diagnosis = %s, want {}", got)
	}

	restored, err := Decode(base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := len(journal) - 1; i >= 0; i-- {
		d, err := DecodeDelta(journal[i])
		if err != nil {
			t.Fatalf("DecodeDelta(%s): %v", journal[i], err)
		}
		restored.Apply(d)
	}
	if got, want := restored.Encode(), live.Encode(); !bytes.Equal(got, want) {
		t.Errorf("replayed deltas diverge from the live store:\n got %s\nwant %s", got, want)
	}
	if restored.Observations() != 4 || restored.KillPairs() != 1 {
		t.Errorf("restored %d observations, %d kill pairs; want 4, 1", restored.Observations(), restored.KillPairs())
	}
}

// TestDecodeDeltaRejectsMalformed: bad JSON, empty signatures and rows
// naming a signature out of range are errors, never a partial delta.
func TestDecodeDeltaRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		`garbage`,
		`"a string"`,
		`{"s":5}`,
		`{"s":[""],"v":[[0,1,0,0]]}`,
		`{"s":["a"],"v":[[1,1,0,0]]}`,
		`{"s":["a"],"k":[[0,1,1,0]]}`,
		`{"v":[[0,1,0,0]]}`,
		`{"s":["a"],"v":[[-1,1,0,0]]}`,
	} {
		if d, err := DecodeDelta([]byte(in)); err == nil {
			t.Errorf("DecodeDelta(%s) = %+v, want an error", in, d)
		}
	}
}
