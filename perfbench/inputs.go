package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"aitia/internal/core"
	"aitia/internal/factory"
	"aitia/internal/ingest"
	"aitia/internal/kasm"
	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/manager"
	"aitia/internal/service"
)

// reqKind classifies a service request by the path it should take.
type reqKind int

const (
	kindBlind  reqKind = iota // fresh program, no report: a blind miss
	kindReport                // fresh program with a crash report: a guided miss
	kindResub                 // resubmission of an earlier request: a cache hit
)

func (k reqKind) String() string {
	return [...]string{"blind", "report", "resub"}[k]
}

// svcRequest is one generated service submission with its reference
// answer.
type svcRequest struct {
	Kind   reqKind
	Of     reqKind // for resubmissions, the kind of the original
	Recipe string
	Path   string // POST endpoint
	Body   []byte // JSON service.Request
	Chain  string // reference chain, computed untimed at generation
	Source string // kasm text of the program
	Report string // crash report text (report requests and their resubmissions)
	Leak   bool   // the recipe plants a memory leak: the end-of-run leak check is on
}

// Shares of the service mix (the remainder resubmits).
const (
	blindShare  = 0.5
	reportShare = 0.2
)

// Resubmissions pick an earlier fresh request at least resubMinBack and
// at most resubMaxBack positions back: far enough that its first
// submission has finished under two closed-loop clients, recent enough
// that the 128-entry result cache still holds it.
const (
	resubMinBack = 4
	resubMaxBack = 24
)

// genService draws n service requests from the seed. Each fresh program
// comes from a factory recipe with its own sub-seed and gets its
// reference answer here, untimed. The same seed always yields the same
// list.
func genService(seed int64, n int) ([]svcRequest, error) {
	rng := rand.New(rand.NewSource(seed))
	recipes := factory.Recipes()
	out := make([]svcRequest, 0, n)
	for len(out) < n {
		roll := rng.Float64()
		if roll >= blindShare+reportShare {
			if r, ok := pickResub(rng, out); ok {
				out = append(out, r)
				continue
			}
			roll = 0 // nothing recent enough yet: draw a fresh blind request
		}
		kind := kindBlind
		if roll >= blindShare {
			kind = kindReport
		}
		recipe := recipes[rng.Intn(len(recipes))]
		sub := rng.Int63()
		r, err := freshRequest(recipe, sub, kind)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func pickResub(rng *rand.Rand, prev []svcRequest) (svcRequest, bool) {
	var cands []int
	for back := resubMinBack; back <= resubMaxBack && back <= len(prev); back++ {
		if p := prev[len(prev)-back]; p.Kind != kindResub {
			cands = append(cands, len(prev)-back)
		}
	}
	if len(cands) == 0 {
		return svcRequest{}, false
	}
	orig := prev[cands[rng.Intn(len(cands))]]
	r := orig
	r.Kind, r.Of = kindResub, orig.Kind
	if orig.Kind == kindReport {
		r.Report = whitespaceNoise(rng, orig.Report)
		r.Body = requestBody(orig.Source, r.Report, orig.Leak)
	}
	return r, true
}

// whitespaceNoise reframes a crash report without changing its content:
// blank lines before and after, trailing blanks on some lines. The
// report fingerprint ignores all of it, so the resubmission must hit the
// cache.
func whitespaceNoise(rng *rand.Rand, text string) string {
	var b strings.Builder
	b.WriteString(strings.Repeat("\n", 1+rng.Intn(3)))
	for _, line := range strings.Split(text, "\n") {
		b.WriteString(line)
		switch rng.Intn(4) {
		case 0:
			b.WriteString(" ")
		case 1:
			b.WriteString("\t ")
		}
		b.WriteString("\n")
	}
	b.WriteString(strings.Repeat("\n", rng.Intn(3)))
	return b.String()
}

func requestBody(src, report string, leak bool) []byte {
	body, err := json.Marshal(service.Request{
		Source:  src,
		Report:  report,
		Options: service.RequestOptions{LeakCheck: leak},
	})
	if err != nil {
		panic(err) // a plain struct of strings always marshals
	}
	return body
}

// freshRequest builds one recipe program and its reference answer.
func freshRequest(recipe factory.Recipe, seed int64, kind reqKind) (svcRequest, error) {
	built, _, err := recipe.Build(rand.New(rand.NewSource(seed)))
	if err != nil {
		return svcRequest{}, fmt.Errorf("recipe %s: %w", recipe.Name, err)
	}
	src := kasm.Disassemble(built)
	prog, err := kasm.Parse(src)
	if err != nil {
		return svcRequest{}, fmt.Errorf("recipe %s: reparse: %w", recipe.Name, err)
	}
	r := svcRequest{Kind: kind, Of: kind, Recipe: recipe.Name, Source: src, Leak: recipe.LeakCheck, Path: "/v1/diagnose"}
	if kind == kindReport {
		if r.Report, err = synthReport(prog, recipe.LeakCheck); err != nil {
			return svcRequest{}, fmt.Errorf("recipe %s (seed %d): %w", recipe.Name, seed, err)
		}
		r.Path = "/v1/diagnose-report"
	}
	r.Body = requestBody(src, r.Report, recipe.LeakCheck)
	if r.Chain, err = referenceChain(prog, r.Report, recipe.LeakCheck); err != nil {
		return svcRequest{}, fmt.Errorf("recipe %s (seed %d): reference diagnosis: %w", recipe.Name, seed, err)
	}
	return r, nil
}

// synthReport reproduces the program's failure and renders it as the
// crash report a sanitizer would print.
func synthReport(prog *kir.Program, leak bool) (string, error) {
	m, err := kvm.New(prog)
	if err != nil {
		return "", err
	}
	rep, err := core.Reproduce(m, core.LIFSOptions{LeakCheck: leak, WantInstr: kir.NoInstr})
	if err != nil {
		return "", err
	}
	return ingest.Synthesize(prog, rep.Run, rep.Races)
}

// referenceChain diagnoses a service request serially in process, the
// way the service's default pipeline does, but with no prior, no
// checkpoints and no tracer.
func referenceChain(prog *kir.Program, report string, leak bool) (string, error) {
	mgr, err := manager.New(prog, manager.Options{
		Workers:  1,
		LIFS:     core.LIFSOptions{LeakCheck: leak, WantInstr: kir.NoInstr},
		Analysis: core.AnalysisOptions{LeakCheck: leak},
	})
	if err != nil {
		return "", err
	}
	var mres *manager.Result
	if report != "" {
		rpt, perr := ingest.Parse(report)
		if perr != nil {
			return "", perr
		}
		mres, err = mgr.DiagnoseReport(context.Background(), rpt)
	} else {
		mres, err = mgr.Diagnose(context.Background())
	}
	if err != nil {
		return "", err
	}
	return mres.Diagnosis.Chain.Format(prog), nil
}
