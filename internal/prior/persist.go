package prior

import (
	"encoding/json"
	"errors"
	"fmt"

	"aitia/internal/durable"
)

// CheckpointKey is the key the prior persists under in a durable
// checkpoint store (one prior per store).
const CheckpointKey = "prior.flips"

// checkpointVersion is the durable envelope version; formatVersion is
// the payload layout version. Bump the latter when snapshot fields
// change incompatibly — loads of other versions degrade to fresh.
const (
	checkpointVersion = 1
	formatVersion     = 1
	formatMagic       = "aitia-prior"
)

// Machine-readable load outcomes (Store.LoadReason): why an analysis
// runs with a warm prior, or degrades to a fresh empty one — and
// therefore to exact fixed-order analysis.
const (
	ReasonLoaded  = "prior_loaded"
	ReasonAbsent  = "prior_absent"
	ReasonInvalid = "prior_invalid"
)

// snapshot is the serialized store.
type snapshot struct {
	Magic        string                `json:"magic"`
	Version      int                   `json:"version"`
	Observations uint64                `json:"observations"`
	Pairs        map[string]*PairStats `json:"pairs"`
	Kills        map[string]*KillStats `json:"kills,omitempty"`
}

// Encode serializes the store. The encoding is deterministic: the same
// statistics produce the same bytes regardless of observation order
// (JSON object keys are sorted).
func (s *Store) Encode() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, err := json.Marshal(snapshot{
		Magic:        formatMagic,
		Version:      formatVersion,
		Observations: s.observations,
		Pairs:        s.pairs,
		Kills:        s.kills,
	})
	if err != nil {
		// A map[string]*PairStats cannot fail to marshal.
		panic(err)
	}
	return data
}

// Decode parses an encoded prior into a fresh store under cfg. Any
// malformed input — bad JSON, wrong magic or version, inconsistent
// counts — returns an error; callers degrade to an empty store.
func Decode(data []byte, cfg Config) (*Store, error) {
	var sn snapshot
	if err := json.Unmarshal(data, &sn); err != nil {
		return nil, fmt.Errorf("prior: decode: %w", err)
	}
	if sn.Magic != formatMagic {
		return nil, fmt.Errorf("prior: decode: bad magic %q", sn.Magic)
	}
	if sn.Version != formatVersion {
		return nil, fmt.Errorf("prior: decode: version %d, want %d", sn.Version, formatVersion)
	}
	st := NewStore(cfg)
	var total uint64
	for sig, ps := range sn.Pairs {
		if sig == "" || ps == nil {
			return nil, errors.New("prior: decode: empty signature or stats")
		}
		cp := *ps
		st.pairs[sig] = &cp
		total += cp.total()
	}
	if total != sn.Observations {
		return nil, fmt.Errorf("prior: decode: %d observations recorded, %d counted", sn.Observations, total)
	}
	for key, ks := range sn.Kills {
		if key == "" || ks == nil {
			return nil, errors.New("prior: decode: empty kill key or stats")
		}
		if ks.total() == 0 {
			return nil, fmt.Errorf("prior: decode: kill pair %q with no observations", key)
		}
		cp := *ks
		st.kills[key] = &cp
	}
	st.observations = total
	return st, nil
}

// LoadFrom loads the persisted prior from the durable store under cfg.
// An absent or corrupt snapshot degrades to a fresh empty store — which
// ranks everything equally and skips nothing, i.e. exact fixed-order
// analysis — with the machine-readable reason returned and recorded on
// the store (Store.LoadReason).
func LoadFrom(store *durable.CheckpointStore, cfg Config) (*Store, string) {
	fresh := func(reason string) (*Store, string) {
		st := NewStore(cfg)
		st.loadReason = reason
		return st, reason
	}
	payload, err := store.Load(CheckpointKey, checkpointVersion)
	switch {
	case errors.Is(err, durable.ErrNoCheckpoint):
		return fresh(ReasonAbsent)
	case err != nil:
		return fresh(fmt.Sprintf("%s: %v", ReasonInvalid, err))
	}
	st, err := Decode(payload, cfg)
	if err != nil {
		return fresh(fmt.Sprintf("%s: %v", ReasonInvalid, err))
	}
	st.loadReason = ReasonLoaded
	return st, ReasonLoaded
}

// SetLoadReason records how a durable layer other than LoadFrom
// restored the store (the service's journal replay); see LoadReason.
func (s *Store) SetLoadReason(reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loadReason = reason
}

// SaveTo persists the store into the durable layer (atomic write; see
// durable.CheckpointStore).
func (s *Store) SaveTo(store *durable.CheckpointStore) error {
	return store.Save(CheckpointKey, checkpointVersion, s.Encode())
}
