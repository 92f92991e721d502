package servet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"servet"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this build's output")

// checkGolden compares got with testdata/<name>; with -update it
// rewrites the file instead. The goldens pin output across commits:
// a refactor that moves a report or calibration by a byte fails here
// even when both of its own code paths still agree with each other.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from the committed golden (re-run with -update only for an intended change)", path)
	}
}

// TestSessionRunGolden pins Session.Run's canonical report on the
// default suite (dempsey, nehalem2s) and on the cache-size + tlb
// subset (tlb-box).
func TestSessionRunGolden(t *testing.T) {
	for _, tc := range []struct {
		m      *servet.Machine
		probes []string
	}{
		{servet.Dempsey(), nil},
		{servet.Nehalem2S(), nil},
		{servet.TLBBox(), []string{"cache-size", "tlb"}},
	} {
		t.Run(tc.m.Name, func(t *testing.T) {
			s, err := servet.NewSession(tc.m, servet.WithOptions(quickOpt))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run(context.Background(), tc.probes...)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "run_"+tc.m.Name+".json", []byte(canonicalJSON(t, rep)+"\n"))
		})
	}
}

// TestDetectCachesGolden pins the standalone refining cache detection:
// the detected levels and the raw calibration curve, probe cost
// included.
func TestDetectCachesGolden(t *testing.T) {
	for _, m := range []*servet.Machine{servet.Dempsey(), servet.Athlon3200()} {
		t.Run(m.Name, func(t *testing.T) {
			s, err := servet.NewSession(m, servet.WithOptions(quickOpt))
			if err != nil {
				t.Fatal(err)
			}
			levels, cal, err := s.DetectCaches(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.MarshalIndent(struct {
				Levels      []servet.DetectedCache
				Calibration servet.Calibration
			}{levels, cal}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "detect_caches_"+m.Name+".json", append(data, '\n'))
		})
	}
}
