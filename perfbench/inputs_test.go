package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"aitia/internal/ingest"
)

// requestList serializes everything a generated request list sends or
// checks, so two lists compare byte for byte.
func requestList(t *testing.T, reqs []svcRequest) []byte {
	t.Helper()
	data, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestGenServiceDeterministic(t *testing.T) {
	const n = 40
	a, err := genService(7, n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genService(7, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(requestList(t, a), requestList(t, b)) {
		t.Fatal("the same seed generated different request lists")
	}
	c, err := genService(8, n)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(requestList(t, a), requestList(t, c)) {
		t.Fatal("different seeds generated the same request list")
	}
}

func TestGenServiceMix(t *testing.T) {
	reqs, err := genService(3, 120)
	if err != nil {
		t.Fatal(err)
	}
	count := map[reqKind]int{}
	for i, r := range reqs {
		count[r.Kind]++
		if r.Chain == "" {
			t.Errorf("request %d has no reference chain", i)
		}
		switch r.Kind {
		case kindReport:
			if r.Path != "/v1/diagnose-report" || r.Report == "" {
				t.Errorf("report request %d: path %s, report %d bytes", i, r.Path, len(r.Report))
			}
		case kindResub:
			if r.Of == kindResub {
				t.Errorf("resubmission %d resubmits a resubmission", i)
			}
		}
	}
	for _, k := range []reqKind{kindBlind, kindReport, kindResub} {
		if count[k] == 0 {
			t.Errorf("no %s requests in %d", k, len(reqs))
		}
	}
}

// Resubmitted reports must keep their fingerprint, or the resubmission
// would not be a cache hit.
func TestWhitespaceNoiseKeepsFingerprint(t *testing.T) {
	reqs, err := genService(5, 80)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, r := range reqs {
		if r.Kind != kindReport {
			continue
		}
		want, err := ingest.Parse(r.Report)
		if err != nil {
			t.Fatal(err)
		}
		for s := int64(0); s < 5; s++ {
			noisy := whitespaceNoise(rand.New(rand.NewSource(s)), r.Report)
			if noisy == r.Report {
				t.Errorf("noise left the report unchanged")
			}
			got, err := ingest.Parse(noisy)
			if err != nil {
				t.Fatal(err)
			}
			if ingest.Fingerprint(got) != ingest.Fingerprint(want) {
				t.Errorf("noise changed the fingerprint:\n%q\n%q", r.Report, noisy)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no report requests generated")
	}
}
