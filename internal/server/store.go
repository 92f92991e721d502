package server

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"servet/internal/report"
)

// ErrNotFound reports a Get for a fingerprint the store has no report
// for. Handlers map it to 404.
var ErrNotFound = errors.New("server: no report for fingerprint")

// SchemaMismatchError reports a Put whose report carries a schema
// version this store does not hold. Handlers map it to 409: the client
// and server disagree about the report format, and silently storing
// (or zero-filling) the entry would corrupt the registry.
type SchemaMismatchError struct {
	// Schema is the offending version the report carried.
	Schema int
	// Want is the version this store holds (report.CurrentSchema).
	Want int
}

func (e *SchemaMismatchError) Error() string {
	return fmt.Sprintf("server: report schema v%d, this registry stores v%d", e.Schema, e.Want)
}

// Store persists registry entries keyed by (machine fingerprint,
// schema version): an entry is addressed by the fingerprint of the
// machine its results describe, under the schema version the store
// currently speaks, so a future schema bump reads only its own
// entries instead of misparsing old ones. Implementations must be
// safe for concurrent use — the registry serves concurrent requests —
// and must never alias returned reports with stored state (hand out
// copies, exactly like the session Cache contract).
type Store interface {
	// Get returns the report stored for the fingerprint under the
	// current schema. A missing entry is ErrNotFound (possibly
	// wrapped).
	Get(fingerprint string) (*report.Report, error)
	// Put stores the report under (its fingerprint, its schema). A
	// fingerprint-less report is an error; a report with a schema other
	// than report.CurrentSchema fails with a *SchemaMismatchError.
	Put(r *report.Report) error
	// List returns every stored current-schema report, sorted by
	// fingerprint.
	List() ([]*report.Report, error)
}

// validatePut enforces the Put contract shared by every Store.
func validatePut(r *report.Report) error {
	if r == nil || r.Fingerprint == "" {
		return errors.New("server: cannot store a report without a fingerprint")
	}
	if r.Schema != report.CurrentSchema {
		return &SchemaMismatchError{Schema: r.Schema, Want: report.CurrentSchema}
	}
	return nil
}

// MemStore is an in-process Store. The zero value is not usable; call
// NewMemStore.
type MemStore struct {
	mu sync.RWMutex
	m  map[string]*report.Report // by fingerprint
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{m: make(map[string]*report.Report)}
}

// Get implements Store. The returned report is a deep copy.
func (s *MemStore) Get(fingerprint string) (*report.Report, error) {
	s.mu.RLock()
	r, ok := s.m[fingerprint]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, fingerprint)
	}
	return r.Clone(), nil
}

// Put implements Store, deep-copying the report so later caller
// mutations do not reach the store.
func (s *MemStore) Put(r *report.Report) error {
	if err := validatePut(r); err != nil {
		return err
	}
	cp := r.Clone()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[r.Fingerprint] = cp
	return nil
}

// List implements Store, returning deep copies sorted by fingerprint.
func (s *MemStore) List() ([]*report.Report, error) {
	s.mu.RLock()
	out := make([]*report.Report, 0, len(s.m))
	for _, r := range s.m {
		out = append(out, r.Clone())
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out, nil
}

// DirStore is a Store over a directory of per-fingerprint JSON report
// files — the same layout the public DirCache writes, so pointing the
// server at a sweep's cache directory serves its reports as-is, and
// files the server stores are directly usable as install-time
// parameter files.
type DirStore struct {
	dir report.Dir
}

// NewDirStore returns a store over the directory at path. The
// directory is created on the first Put.
func NewDirStore(path string) *DirStore {
	return &DirStore{dir: report.Dir{Path: path}}
}

// Path returns the backing directory.
func (s *DirStore) Path() string { return s.dir.Path }

// Get implements Store: it reads the entry file fresh on every call,
// so every caller owns its copy. A missing file is ErrNotFound; an
// unreadable, schema-incompatible or mislabeled one is reported as
// not-found too, with the cause attached.
func (s *DirStore) Get(fingerprint string) (*report.Report, error) {
	r, err := s.dir.Load(fingerprint)
	if err != nil {
		if os.IsNotExist(errors.Unwrap(err)) || errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, fingerprint)
		}
		return nil, fmt.Errorf("%w: %s: %w", ErrNotFound, fingerprint, err)
	}
	return r, nil
}

// Put implements Store via the atomic per-fingerprint file write of
// report.Dir.
func (s *DirStore) Put(r *report.Report) error {
	if err := validatePut(r); err != nil {
		return err
	}
	return s.dir.Save(r)
}

// List implements Store over the directory's readable entries.
func (s *DirStore) List() ([]*report.Report, error) {
	return s.dir.List()
}
