package servet

import (
	"fmt"
	"sync"

	"servet/internal/report"
)

// Cache stores probe results between sessions, keyed by machine
// fingerprint. The stored value is a full Report whose Provenance
// records which probes produced which sections under which options —
// that is all a Session needs to decide, probe by probe, whether a
// saved section is still fresh or must be re-measured.
//
// Implementations must be safe for concurrent use: Sweep fans many
// sessions over one cache.
type Cache interface {
	// Lookup returns the saved report for a machine fingerprint, or
	// ok=false on a miss. A corrupt or unreadable entry is a miss, not
	// an error: the session then simply measures everything. The
	// returned report is owned by the caller: implementations must
	// hand out a private copy (a deep clone or a freshly loaded one),
	// never a pointer shared with the cache entry, so no caller
	// mutation can corrupt the cache.
	Lookup(fingerprint string) (r *Report, ok bool)
	// Store saves the report (which carries the fingerprint, schema and
	// provenance) as the new cache entry for the fingerprint.
	Store(fingerprint string, r *Report) error
}

// MemoryCache is an in-process Cache holding one report per machine
// fingerprint. The zero value is not usable; call NewMemoryCache.
type MemoryCache struct {
	mu sync.RWMutex
	m  map[string]*Report
}

// NewMemoryCache returns an empty in-memory cache.
func NewMemoryCache() *MemoryCache {
	return &MemoryCache{m: make(map[string]*Report)}
}

// Lookup implements Cache. The returned report is a deep copy, so
// caller mutations never reach the cached entry.
func (c *MemoryCache) Lookup(fingerprint string) (*Report, bool) {
	c.mu.RLock()
	r, ok := c.m[fingerprint]
	c.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return r.Clone(), true
}

// Store implements Cache. The report is deep-copied, so later caller
// mutations do not reach the cache.
func (c *MemoryCache) Store(fingerprint string, r *Report) error {
	cp := r.Clone()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[fingerprint] = cp
	return nil
}

// FileCache is a Cache backed by one install-time JSON report file —
// the paper's parameter file doubling as an incremental probe cache.
// It holds the report of a single machine: Lookup for a different
// fingerprint is a miss, and Store refuses (with a
// *FingerprintMismatchError) to replace a readable entry belonging to
// a different machine. Point each machine's session at its own path
// (or share a MemoryCache) when sweeping several models.
type FileCache struct {
	mu   sync.Mutex
	path string
}

// NewFileCache returns a cache backed by the report file at path. The
// file need not exist yet; the first Store creates it.
func NewFileCache(path string) *FileCache {
	return &FileCache{path: path}
}

// Path returns the backing file's path.
func (c *FileCache) Path() string { return c.path }

// Lookup implements Cache: it reads the file fresh on every call. A
// missing file, an unreadable or schema-incompatible one, or a report
// for another machine are all misses.
func (c *FileCache) Lookup(fingerprint string) (*Report, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, err := report.Load(c.path)
	if err != nil || r.Fingerprint != fingerprint {
		return nil, false
	}
	return r, true
}

// Store implements Cache, overwriting the backing file — unless the
// file currently holds another machine's report, in which case Store
// fails with a *FingerprintMismatchError instead of clobbering that
// machine's install-time file (the shared-cache Sweep footgun). A
// missing, unreadable or fingerprint-less file is not another
// machine's entry and is overwritten.
func (c *FileCache) Store(fingerprint string, r *Report) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, err := report.Load(c.path); err == nil &&
		cur.Fingerprint != "" && cur.Fingerprint != fingerprint {
		return &FingerprintMismatchError{Path: c.path, Have: cur.Fingerprint, Want: fingerprint}
	}
	return r.Save(c.path)
}

// FingerprintMismatchError reports a FileCache.Store that would have
// replaced the install-time file of a different machine. It typically
// means sessions of several machine models shared one FileCache, or
// FileCaches on one path; give each model its own file, or share a
// fingerprint-keyed cache (DirCache, MemoryCache, RemoteCache) instead.
type FingerprintMismatchError struct {
	// Path is the backing file that was protected.
	Path string
	// Have is the fingerprint of the report currently in the file.
	Have string
	// Want is the fingerprint the refused Store carried.
	Want string
}

func (e *FingerprintMismatchError) Error() string {
	return fmt.Sprintf("cache file %s holds report for machine %s, refusing to overwrite with %s (use one cache file per machine)", e.Path, e.Have, e.Want)
}
