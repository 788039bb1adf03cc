package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// Checkpoint files carry an envelope:
//
//	magic   [8]byte  "AITIACKP"
//	version uint32 LE (format version of the payload, supplied by caller)
//	keyLen  uint32 LE
//	key     [keyLen]byte (e.g. "<program-hash>.lifs")
//	payLen  uint32 LE
//	crc32   uint32 LE (IEEE, of payload)
//	payload [payLen]byte
//
// Save is atomic (tmp + rename); Load validates every field and returns
// ErrCheckpointInvalid on any mismatch so callers fall back to a fresh
// search instead of trusting a stale or foreign snapshot.

var checkpointMagic = [8]byte{'A', 'I', 'T', 'I', 'A', 'C', 'K', 'P'}

// ErrCheckpointInvalid marks a checkpoint that exists but cannot be
// trusted: bad magic, version mismatch, key mismatch, bad checksum, or
// truncation. Callers must treat it exactly like "no checkpoint".
var ErrCheckpointInvalid = errors.New("durable: checkpoint invalid")

// ErrNoCheckpoint is returned by Load when no checkpoint exists for the
// key.
var ErrNoCheckpoint = errors.New("durable: no checkpoint")

// CheckpointStats counts store activity.
type CheckpointStats struct {
	Saves   uint64
	Loads   uint64 // successful loads
	Invalid uint64 // loads rejected as invalid
	Misses  uint64 // loads with no file present
	Deletes uint64
}

// CheckpointStore persists named, versioned snapshots in a directory.
// Keys are sanitized into file names; each key holds at most one
// checkpoint (Save overwrites atomically).
type CheckpointStore struct {
	dir  string
	sync bool

	saves   atomic.Uint64
	loads   atomic.Uint64
	invalid atomic.Uint64
	misses  atomic.Uint64
	deletes atomic.Uint64
}

// OpenCheckpointStore opens (creating if necessary) a store rooted at
// dir. With sync set, saves fsync before rename.
func OpenCheckpointStore(dir string, sync bool) (*CheckpointStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: create checkpoint dir: %w", err)
	}
	return &CheckpointStore{dir: dir, sync: sync}, nil
}

func (s *CheckpointStore) path(key string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, key)
	return filepath.Join(s.dir, clean+".ckpt")
}

// Save atomically writes payload under key with the given format
// version, replacing any prior checkpoint for the key.
func (s *CheckpointStore) Save(key string, version uint32, payload []byte) error {
	buf := make([]byte, 0, 8+4+4+len(key)+4+4+len(payload))
	buf = append(buf, checkpointMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	buf = append(buf, payload...)

	tmp, err := os.CreateTemp(s.dir, "ckpt-*")
	if err != nil {
		return fmt.Errorf("durable: checkpoint temp: %w", err)
	}
	tmpName := tmp.Name()
	renamed := false
	defer func() {
		// A successful rename consumed the temp file: only a failed
		// save has one to remove.
		if !renamed {
			os.Remove(tmpName)
		}
	}()
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: checkpoint write: %w", err)
	}
	if s.sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return fmt.Errorf("durable: checkpoint sync: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("durable: checkpoint close: %w", err)
	}
	if err := os.Rename(tmpName, s.path(key)); err != nil {
		return fmt.Errorf("durable: checkpoint rename: %w", err)
	}
	renamed = true
	s.saves.Add(1)
	return nil
}

// Load reads and validates the checkpoint for key at the expected
// format version. Any validation failure returns an error wrapping
// ErrCheckpointInvalid; a missing file returns ErrNoCheckpoint.
func (s *CheckpointStore) Load(key string, version uint32) ([]byte, error) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			s.misses.Add(1)
			return nil, ErrNoCheckpoint
		}
		return nil, fmt.Errorf("durable: checkpoint read: %w", err)
	}
	payload, err := decodeCheckpoint(data, key, version)
	if err != nil {
		s.invalid.Add(1)
		return nil, err
	}
	s.loads.Add(1)
	return payload, nil
}

func decodeCheckpoint(data []byte, key string, version uint32) ([]byte, error) {
	if len(data) < 8+4+4 {
		return nil, fmt.Errorf("%w: truncated header", ErrCheckpointInvalid)
	}
	if [8]byte(data[:8]) != checkpointMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCheckpointInvalid)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != version {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCheckpointInvalid, v, version)
	}
	keyLen := binary.LittleEndian.Uint32(data[12:16])
	rest := data[16:]
	if uint64(keyLen) > uint64(len(rest)) {
		return nil, fmt.Errorf("%w: truncated key", ErrCheckpointInvalid)
	}
	if string(rest[:keyLen]) != key {
		return nil, fmt.Errorf("%w: key %q, want %q", ErrCheckpointInvalid, rest[:keyLen], key)
	}
	rest = rest[keyLen:]
	if len(rest) < 8 {
		return nil, fmt.Errorf("%w: truncated length", ErrCheckpointInvalid)
	}
	payLen := binary.LittleEndian.Uint32(rest[0:4])
	wantCRC := binary.LittleEndian.Uint32(rest[4:8])
	payload := rest[8:]
	if uint64(payLen) != uint64(len(payload)) {
		return nil, fmt.Errorf("%w: payload length %d, have %d bytes", ErrCheckpointInvalid, payLen, len(payload))
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCheckpointInvalid)
	}
	return payload, nil
}

// Delete removes the checkpoint for key, if present.
func (s *CheckpointStore) Delete(key string) error {
	err := os.Remove(s.path(key))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("durable: checkpoint delete: %w", err)
	}
	if err == nil {
		s.deletes.Add(1)
	}
	return nil
}

// Stats returns a snapshot of the store counters.
func (s *CheckpointStore) Stats() CheckpointStats {
	return CheckpointStats{
		Saves:   s.saves.Load(),
		Loads:   s.loads.Load(),
		Invalid: s.invalid.Load(),
		Misses:  s.misses.Load(),
		Deletes: s.deletes.Load(),
	}
}

// Dir returns the store's root directory.
func (s *CheckpointStore) Dir() string { return s.dir }
