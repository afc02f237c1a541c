package campaign

import (
	"os"
	"path/filepath"
	"testing"

	"netscatter/internal/serve"
)

// testSpec is a tiny but fully-axed campaign: two device counts, two
// AP counts, two seeds, a static and an adversarial channel — 16
// cells, each cheap (SF 6, 2-byte payloads).
func testSpec() *Spec {
	return &Spec{
		Name:         "test-grid",
		SF:           6,
		PayloadBytes: 2,
		Devices:      []int{2, 3},
		APs:          []int{1, 2},
		Rounds:       []int{2},
		Seeds:        []int64{1, 2},
		Channels: []ChannelSpec{
			{Name: "static"},
			{Name: "mobile", Adversity: &serve.AdversityConfig{DopplerHz: 4, SleepProb: 0.1}},
		},
	}
}

func TestSpecExpansion(t *testing.T) {
	spec := testSpec()
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 1 * 2 * 2; len(cells) != want {
		t.Fatalf("expanded %d cells, want %d", len(cells), want)
	}
	seen := map[int64]bool{}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has index %d", i, c.Index)
		}
		if c.Config.Devices != c.Devices || c.Config.APs != c.APs {
			t.Errorf("cell %d config does not mirror axes: %+v", i, c)
		}
		if c.Config.Seed == 0 {
			t.Errorf("cell %d has zero deployment seed (would select the service default)", i)
		}
		seen[c.Config.Seed] = true
		if (c.Channel == "mobile") != (c.Config.Adversity != nil) {
			t.Errorf("cell %d channel %q adversity mismatch", i, c.Channel)
		}
	}
	if len(seen) != len(cells) {
		t.Errorf("deployment seeds collide: %d distinct over %d cells", len(seen), len(cells))
	}

	// Expansion is deterministic: a second expansion is identical.
	again, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if cells[i] != again[i] {
			t.Fatalf("cell %d differs between expansions", i)
		}
	}
}

func TestSpecDefaults(t *testing.T) {
	spec := &Spec{Name: "minimal", Devices: []int{4}}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("minimal spec expanded to %d cells, want 1", len(cells))
	}
	c := cells[0]
	if c.APs != 1 || c.Rounds != 1 || c.Seed != 1 || c.Channel != "static" {
		t.Errorf("defaults not applied: %+v", c)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []*Spec{
		{Devices: []int{4}},                                         // no name
		{Name: "x"},                                                 // no devices axis
		{Name: "x", Devices: []int{0}},                              // bad device count
		{Name: "x", Devices: []int{4}, APs: []int{0}},               // bad AP count
		{Name: "x", Devices: []int{4}, Rounds: []int{0}},            // bad rounds
		{Name: "x", Devices: []int{4}, Channels: []ChannelSpec{{}}}, // unnamed channel
	}
	for i, s := range bad {
		if _, err := s.Cells(); err == nil {
			t.Errorf("bad spec %d expanded without error", i)
		}
	}
}

// TestSpecGridBound: a grid of exactly MaxCells cells expands; one
// past it — or one whose axis product overflows int — is rejected
// before anything is allocated.
func TestSpecGridBound(t *testing.T) {
	ones := func(n int) []int {
		v := make([]int, n)
		for i := range v {
			v[i] = 1
		}
		return v
	}
	edge := &Spec{Name: "edge", Devices: ones(256), APs: ones(MaxCells / 256)}
	if cells, err := edge.Cells(); err != nil || len(cells) != MaxCells {
		t.Fatalf("MaxCells grid: %d cells, err %v", len(cells), err)
	}
	edge.Rounds = []int{1, 2}
	if _, err := edge.Cells(); err == nil {
		t.Fatal("grid of 2×MaxCells cells accepted")
	}
	huge := &Spec{Name: "huge", Devices: ones(3000), APs: ones(3000), Rounds: ones(3000), Seeds: make([]int64, 3000)}
	if _, err := huge.Cells(); err == nil {
		t.Fatal("grid of 3000^4 cells accepted")
	}
}

func TestLoadSpecAndDigest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	body := `{"name":"loaded","sf":6,"devices":[2,4],"aps":[1,2],"seeds":[7]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("loaded spec expanded to %d cells, want 4", len(cells))
	}
	if spec.Digest() != spec.Digest() {
		t.Error("digest is not stable")
	}
	other := testSpec()
	if spec.Digest() == other.Digest() {
		t.Error("distinct specs share a digest")
	}

	if err := os.WriteFile(path, []byte(`{"name":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(path); err == nil {
		t.Error("LoadSpec accepted a spec with no devices axis")
	}
}
