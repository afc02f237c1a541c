package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadSpec: no spec document makes the decode-and-expand path
// panic or allocate an unbounded grid. An accepted spec expands to a
// dense grid of at most MaxCells cells whose configs mirror their
// axes, and its digest is stable. Seeds: the worked office spec, the
// test grid, a minimal spec, and grids past MaxCells (four axes of
// 3,000 entries, whose product overflows a naive size computation).
func FuzzLoadSpec(f *testing.F) {
	office, err := os.ReadFile(filepath.Join("..", "..", "examples", "campaign", "office.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(office)
	grid, err := json.Marshal(testSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(grid)
	f.Add([]byte(`{"name":"x","devices":[1]}`))
	f.Add([]byte(`{"name":"x","devices":[1,2],"aps":[1,2,3],"rounds":[1],"seeds":[-1,0,9223372036854775807]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := parseSpec("fuzz", data)
		if err != nil {
			return
		}
		cells, err := s.Cells()
		if err != nil {
			t.Fatalf("accepted spec fails to expand: %v", err)
		}
		if len(cells) == 0 || len(cells) > MaxCells {
			t.Fatalf("accepted spec expands to %d cells", len(cells))
		}
		for i, c := range cells {
			if c.Index != i {
				t.Fatalf("cell %d has index %d", i, c.Index)
			}
			if c.Devices < 1 || c.APs < 1 || c.Rounds < 1 || c.Config.Seed == 0 {
				t.Fatalf("cell %d escaped validation: %+v", i, c)
			}
			if c.Config.Devices != c.Devices || c.Config.APs != c.APs {
				t.Fatalf("cell %d config does not mirror its axes: %+v", i, c)
			}
		}
		if s.Digest() != s.Digest() {
			t.Fatal("digest is not stable")
		}
	})
}
