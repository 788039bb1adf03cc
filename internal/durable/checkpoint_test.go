package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func openStore(t *testing.T) *CheckpointStore {
	t.Helper()
	s, err := OpenCheckpointStore(t.TempDir(), false)
	if err != nil {
		t.Fatalf("OpenCheckpointStore: %v", err)
	}
	return s
}

func TestCheckpointRoundTrip(t *testing.T) {
	s := openStore(t)
	payload := []byte(`{"round":1,"phase":3}`)
	if err := s.Save("abc123.lifs", 2, payload); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := s.Load("abc123.lifs", 2)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Load = %q, want %q", got, payload)
	}
	if st := s.Stats(); st.Saves != 1 || st.Loads != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCheckpointMissing(t *testing.T) {
	s := openStore(t)
	if _, err := s.Load("nope", 1); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint, got %v", err)
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCheckpointVersionMismatch(t *testing.T) {
	s := openStore(t)
	if err := s.Save("k", 1, []byte("v1 payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("k", 2); !errors.Is(err, ErrCheckpointInvalid) {
		t.Fatalf("version mismatch must be ErrCheckpointInvalid, got %v", err)
	}
	if st := s.Stats(); st.Invalid != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCheckpointKeyMismatch(t *testing.T) {
	s := openStore(t)
	if err := s.Save("prog-A.lifs", 1, []byte("state for A")); err != nil {
		t.Fatal(err)
	}
	// Copy A's file over B's slot: the embedded key must catch it.
	data, err := os.ReadFile(s.path("prog-A.lifs"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path("prog-B.lifs"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("prog-B.lifs", 1); !errors.Is(err, ErrCheckpointInvalid) {
		t.Fatalf("key mismatch must be ErrCheckpointInvalid, got %v", err)
	}
}

func TestCheckpointCorruption(t *testing.T) {
	s := openStore(t)
	payload := []byte("some serialized search frontier")
	if err := s.Save("k", 1, payload); err != nil {
		t.Fatal(err)
	}
	path := s.path("k")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every single-byte flip anywhere in the file must be rejected.
	for off := range pristine {
		mutated := append([]byte(nil), pristine...)
		mutated[off] ^= 0x5A
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Load("k", 1); !errors.Is(err, ErrCheckpointInvalid) {
			t.Fatalf("byte flip at %d accepted (err=%v)", off, err)
		}
	}
	// Every truncation must be rejected too.
	for cut := 0; cut < len(pristine); cut++ {
		if err := os.WriteFile(path, pristine[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Load("k", 1); !errors.Is(err, ErrCheckpointInvalid) {
			t.Fatalf("truncation at %d accepted (err=%v)", cut, err)
		}
	}
}

func TestCheckpointOverwriteAndDelete(t *testing.T) {
	s := openStore(t)
	if err := s.Save("k", 1, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("k", 1, []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load("k", 1)
	if err != nil || string(got) != "new" {
		t.Fatalf("Load = %q, %v", got, err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("k", 1); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("after Delete want ErrNoCheckpoint, got %v", err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatalf("Delete of missing key must be nil, got %v", err)
	}
}

func TestCheckpointKeySanitization(t *testing.T) {
	s := openStore(t)
	key := "hash/with:odd*chars?.lifs"
	if err := s.Save(key, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load(key, 1)
	if err != nil || string(got) != "x" {
		t.Fatalf("Load = %q, %v", got, err)
	}
}

// TestCheckpointLeavesNoTempFiles: a successful save renames its temp
// file into place, and a failed one (the target path is a directory,
// so the rename fails) removes it.
func TestCheckpointLeavesNoTempFiles(t *testing.T) {
	s := openStore(t)
	for i := 0; i < 3; i++ {
		if err := s.Save("k", 1, []byte("payload")); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	if err := os.Mkdir(s.path("blocked"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("blocked", 1, []byte("payload")); err == nil {
		t.Fatal("Save over a directory succeeded")
	}
	if st := s.Stats(); st.Saves != 3 {
		t.Errorf("Saves = %d, want 3 (the failed save must not count)", st.Saves)
	}
	tmps, err := filepath.Glob(filepath.Join(s.Dir(), "ckpt-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
}
