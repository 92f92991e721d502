// Directory layout for multi-entry report storage: one JSON report
// file per machine fingerprint. The layout is shared by the public
// DirCache (a probe cache for heterogeneous sweeps) and the registry
// server's directory Store, so a server pointed at a sweep's cache
// directory serves its reports as-is.
package report

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Dir is a directory of per-fingerprint report files. Each entry
// lives in its own file named after the (sanitized) fingerprint, so
// entries for different machines never collide and a whole
// heterogeneous sweep can share one directory.
type Dir struct {
	// Path is the directory holding the entries. It is created on the
	// first Save.
	Path string
}

// entryName maps a fingerprint to a file name: bytes outside
// [a-zA-Z0-9._-] (the ':' of "sha256:...", above all) become '-',
// keeping names portable across filesystems.
func entryName(fingerprint string) string {
	var b strings.Builder
	for _, r := range fingerprint {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return b.String() + ".json"
}

// EntryPath returns the file path a fingerprint's report lives at.
func (d Dir) EntryPath(fingerprint string) string {
	return filepath.Join(d.Path, entryName(fingerprint))
}

// Save writes the report into the fingerprint-named entry file,
// creating the directory on first use. The write is Save's, atomic, so
// a concurrent Load never observes a partial entry. Reports without a
// fingerprint have no entry name and are rejected.
func (d Dir) Save(r *Report) error {
	if r.Fingerprint == "" {
		return fmt.Errorf("report: dir %s: cannot store a report without a fingerprint", d.Path)
	}
	if err := os.MkdirAll(d.Path, 0o755); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	return r.Save(d.EntryPath(r.Fingerprint))
}

// Load reads the fingerprint's entry. Beyond the schema check of Load,
// it verifies the loaded report actually carries the requested
// fingerprint, so a renamed or hand-edited file cannot serve results
// for the wrong machine.
func (d Dir) Load(fingerprint string) (*Report, error) {
	r, err := Load(d.EntryPath(fingerprint))
	if err != nil {
		return nil, err
	}
	if r.Fingerprint != fingerprint {
		return nil, fmt.Errorf("report: %s holds report for %s, want %s", d.EntryPath(fingerprint), r.Fingerprint, fingerprint)
	}
	return r, nil
}

// List loads every readable entry of the directory, sorted by
// fingerprint. Unreadable, schema-incompatible or fingerprint-less
// files are skipped, not errors: a cache directory degrades to the
// entries that are still valid. A missing directory lists empty.
func (d Dir) List() ([]*Report, error) {
	files, err := os.ReadDir(d.Path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	var out []*Report
	for _, f := range files {
		if f.IsDir() || !strings.HasSuffix(f.Name(), ".json") {
			continue
		}
		r, err := Load(filepath.Join(d.Path, f.Name()))
		if err != nil || r.Fingerprint == "" {
			continue
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out, nil
}
