package topology

import (
	"strings"
	"testing"
)

func TestFingerprintStable(t *testing.T) {
	a, b := Dunnington(), Dunnington()
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("two identical models fingerprint differently: %s vs %s",
			a.Fingerprint(), b.Fingerprint())
	}
	if !strings.HasPrefix(a.Fingerprint(), "sha256:") {
		t.Errorf("fingerprint format: %s", a.Fingerprint())
	}
}

func TestFingerprintDistinguishesModels(t *testing.T) {
	seen := map[string]string{}
	for name, mk := range Models(2) {
		fp := mk.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("models %s and %s share fingerprint %s", prev, name, fp)
		}
		seen[fp] = name
	}
}

func TestModelMatchesModels(t *testing.T) {
	for _, nodes := range []int{0, 1, 3} {
		for name, want := range Models(nodes) {
			got, ok := Model(name, nodes)
			if !ok {
				t.Fatalf("Model(%q, %d) not found", name, nodes)
			}
			if got.Fingerprint() != want.Fingerprint() {
				t.Errorf("Model(%q, %d) fingerprint %s, Models gives %s",
					name, nodes, got.Fingerprint(), want.Fingerprint())
			}
		}
	}
	for _, tc := range []struct {
		nodes int
		want  *Machine
	}{{3, FinisTerrae(3)}, {0, FinisTerrae(1)}} {
		got, _ := Model("finisterrae", tc.nodes)
		if got.Fingerprint() != tc.want.Fingerprint() {
			t.Errorf("Model(finisterrae, %d) ignores its node count", tc.nodes)
		}
	}
	if m, ok := Model("no-such-machine", 2); ok || m != nil {
		t.Errorf("unknown name resolved to %v, %v", m, ok)
	}
}

func TestFingerprintSensitiveToChanges(t *testing.T) {
	base := Dempsey()
	fp := base.Fingerprint()

	resized := Dempsey()
	resized.Caches[0].SizeBytes *= 2
	if resized.Fingerprint() == fp {
		t.Error("cache-size change not reflected in fingerprint")
	}

	regrouped := Dempsey()
	regrouped.Caches[1].Groups = GroupsOf([]int{0, 1})
	if regrouped.Fingerprint() == fp {
		t.Error("sharing-group change not reflected in fingerprint")
	}

	clocked := Dempsey()
	clocked.ClockGHz += 0.1
	if clocked.Fingerprint() == fp {
		t.Error("clock change not reflected in fingerprint")
	}
}
