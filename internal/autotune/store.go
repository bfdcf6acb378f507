package autotune

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"ipim/internal/compiler"
	"ipim/internal/halide"
	"ipim/internal/sim"
)

// SchemaVersion is the journal record schema. Loading a journal written
// at any other version is rejected (delete or migrate the file); bump
// it whenever Record or Candidate changes incompatibly.
const SchemaVersion = 1

// Key identifies one tuning result: what algorithm, at what geometry,
// on what machine. See compiler.PipelineFingerprint / ConfigDigest for
// what each digest covers (schedules and the tuned DRAM policies are
// deliberately excluded — they are the payload, not the key).
type Key struct {
	// Pipeline is the schedule-independent algorithm fingerprint.
	Pipeline uint64 `json:"pipeline"`
	// W, H is the image geometry the schedule was tuned for.
	W int `json:"w"`
	H int `json:"h"`
	// Config digests the machine configuration and compiler options.
	Config uint64 `json:"config"`
}

// KeyFor computes the store key for tuning pipe with opts on cfg at
// w×h.
func KeyFor(cfg *sim.Config, opts compiler.Options, pipe *halide.Pipeline, w, h int) Key {
	return Key{
		Pipeline: compiler.PipelineFingerprint(pipe),
		W:        w,
		H:        h,
		Config:   compiler.ConfigDigest(cfg, opts),
	}
}

// Record is one journal entry: the winning schedule for a key, plus
// enough context to audit where it came from. Later records for the
// same key supersede earlier ones.
type Record struct {
	Schema int `json:"schema"`
	Key    Key `json:"key"`
	// Label is a human hint (typically the workload name); it carries
	// no identity — the Key does.
	Label    string `json:"label,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	// Best is the winning candidate and BestCycles its probe cost;
	// DefaultCycles is the unmodified-schedule baseline on the same
	// probe (0 when no baseline was measured).
	Best          Candidate `json:"best"`
	BestCycles    int64     `json:"best_cycles"`
	DefaultCycles int64     `json:"default_cycles,omitempty"`
	// Evaluated counts candidates the search measured.
	Evaluated int `json:"evaluated,omitempty"`
	// UpdatedUnix is the caller-stamped write time (seconds).
	UpdatedUnix int64 `json:"updated_unix,omitempty"`
}

// Improvement returns DefaultCycles/BestCycles, or 0 when unknown.
func (r Record) Improvement() float64 {
	if r.BestCycles <= 0 || r.DefaultCycles <= 0 {
		return 0
	}
	return float64(r.DefaultCycles) / float64(r.BestCycles)
}

// Store is the persistent tuning-results database: an append-only JSONL
// journal with an in-memory index. All methods are safe for concurrent
// use. A Store opened with an empty path is memory-only (the serving
// daemon's default); with a path, every Put appends one line and
// Compact rewrites the journal to one line per live key via
// temp-file+rename, so a crash at any point leaves either the old or
// the new journal — never a mix.
//
// Load-time recovery: a torn trailing line (crash mid-append) is
// discarded and the file truncated back to the last intact record;
// corruption anywhere earlier, or any record with a foreign schema
// version, rejects the journal with an error instead of guessing.
type Store struct {
	mu    sync.Mutex
	path  string
	f     *os.File
	index map[Key]Record
	puts  int64 // appends since open (journal growth signal)
}

// OpenStore opens (or creates) the journal at path and replays it into
// the index. An empty path yields a memory-only store.
func OpenStore(path string) (*Store, error) {
	s := &Store{path: path, index: map[Key]Record{}}
	if path == "" {
		return s, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("autotune: open store: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("autotune: read store: %w", err)
	}
	good, err := s.replay(data)
	if err != nil {
		f.Close()
		return nil, err
	}
	if good < int64(len(data)) {
		// Torn tail from a crashed append: cut it off so future appends
		// start on a clean line boundary.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("autotune: truncate torn journal: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("autotune: seek store: %w", err)
	}
	s.f = f
	return s, nil
}

// replay parses the journal, filling the index, and returns the byte
// offset just past the last intact record. Corruption is tolerated only
// at the tail (a torn final write); anything earlier is an error.
func (s *Store) replay(data []byte) (int64, error) {
	var good int64
	line := 0
	for off := 0; off < len(data); {
		line++
		end := bytes.IndexByte(data[off:], '\n')
		if end < 0 {
			// Unterminated tail: recoverable torn write.
			return good, nil
		}
		raw := data[off : off+end]
		next := int64(off + end + 1)
		if len(bytes.TrimSpace(raw)) == 0 {
			off = int(next)
			good = next
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			// A corrupt line followed by more data is real corruption;
			// corrupt at the very tail is a torn write we can drop.
			if next >= int64(len(data)) {
				return good, nil
			}
			return 0, fmt.Errorf("autotune: store %s: corrupt record on line %d: %v", s.path, line, err)
		}
		if rec.Schema != SchemaVersion {
			return 0, fmt.Errorf("autotune: store %s: line %d has schema %d, want %d (migrate or delete the journal)",
				s.path, line, rec.Schema, SchemaVersion)
		}
		s.index[rec.Key] = rec
		off = int(next)
		good = next
	}
	return good, nil
}

// Put records rec (stamping the schema version), superseding any
// earlier record for the same key, and appends it to the journal.
func (s *Store) Put(rec Record) error {
	rec.Schema = SchemaVersion
	s.mu.Lock()
	defer s.mu.Unlock()
	s.index[rec.Key] = rec
	s.puts++
	if s.f == nil {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("autotune: encode record: %w", err)
	}
	if _, err := s.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("autotune: append record: %w", err)
	}
	return nil
}

// Get returns the live record for key.
func (s *Store) Get(key Key) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.index[key]
	return rec, ok
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Snapshot returns every live record in deterministic key order.
func (s *Store) Snapshot() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sorted()
}

// sorted returns every live record ordered by (Pipeline, Config, W, H).
// The caller holds mu.
func (s *Store) sorted() []Record {
	out := make([]Record, 0, len(s.index))
	for _, rec := range s.index {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Pipeline != b.Pipeline {
			return a.Pipeline < b.Pipeline
		}
		if a.Config != b.Config {
			return a.Config < b.Config
		}
		if a.W != b.W {
			return a.W < b.W
		}
		return a.H < b.H
	})
	return out
}

// Compact rewrites the journal to one line per live key. The new
// journal is staged as a temp file in the same directory and renamed
// over the old one, so readers and a crash see either version, never a
// partial write. A memory-only store compacts trivially.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	dir := filepath.Dir(s.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(s.path)+".compact-*")
	if err != nil {
		return fmt.Errorf("autotune: compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	// Deterministic order keeps compacted journals diffable.
	for _, rec := range s.sorted() {
		line, err := json.Marshal(rec)
		if err != nil {
			tmp.Close()
			return fmt.Errorf("autotune: compact encode: %w", err)
		}
		if _, err := tmp.Write(append(line, '\n')); err != nil {
			tmp.Close()
			return fmt.Errorf("autotune: compact write: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("autotune: compact sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("autotune: compact close: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		return fmt.Errorf("autotune: compact rename: %w", err)
	}
	old := s.f
	f, err := os.OpenFile(s.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("autotune: reopen compacted store: %w", err)
	}
	old.Close()
	s.f = f
	s.puts = 0
	return nil
}

// Close compacts a journal that accumulated superseded lines and
// releases the file handle. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	needCompact := s.f != nil && s.puts > int64(len(s.index))
	s.mu.Unlock()
	if needCompact {
		if err := s.Compact(); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
