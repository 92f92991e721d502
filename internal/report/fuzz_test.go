package report

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to the report decoder every cached
// entry enters through. Parsing never panics; a report it accepts
// survives Save→parse→Save byte for byte, renders without panicking,
// and clones to a report that saves to the same bytes. The corpus is
// seeded with the committed run goldens.
func FuzzLoad(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "testdata", "run_*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(seeds) == 0 {
		f.Fatal("no run_*.json seeds")
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := parse(data, "fuzz")
		if err != nil {
			return
		}
		saved, err := r.encode()
		if err != nil {
			t.Fatalf("accepted report does not encode: %v", err)
		}
		back, err := parse(saved, "fuzz")
		if err != nil {
			t.Fatalf("saved report does not parse back: %v\n%s", err, saved)
		}
		again, err := back.encode()
		if err != nil {
			t.Fatalf("re-parsed report does not encode: %v", err)
		}
		if !bytes.Equal(saved, again) {
			t.Fatalf("Save→parse→Save is not stable:\n%s\nvs\n%s", saved, again)
		}
		_ = r.Summary()
		cloned, err := r.Clone().encode()
		if err != nil {
			t.Fatalf("clone does not encode: %v", err)
		}
		if !bytes.Equal(cloned, saved) {
			t.Fatalf("clone encodes differently:\n%s\nvs\n%s", cloned, saved)
		}
	})
}
