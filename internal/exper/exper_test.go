package exper

import (
	"strconv"
	"strings"
	"testing"
)

func quickCfg() Config { return Config{Seed: 1, Quick: true} }

func runByID(t *testing.T, id string) *Result {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	res, err := e.Run(quickCfg())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(res.Tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	return res
}

func cell(t *testing.T, tab Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(tab.Rows[row][col]), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	// One experiment per paper artifact listed in DESIGN.md.
	want := []string{"T1", "C1", "F4", "F7", "F8", "F9", "F12", "F14A", "F14B",
		"F15A", "F15B", "F16", "F17", "F18", "F19", "S1", "B1", "M1", "M2", "R1", "R2"}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s missing", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestByIDCaseInsensitive(t *testing.T) {
	if _, ok := ByID("f17"); !ok {
		t.Fatal("lower-case lookup failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("bogus ID matched")
	}
}

func TestTable1Values(t *testing.T) {
	res := runByID(t, "T1")
	tab := res.Tables[0]
	if len(tab.Rows) != 6 {
		t.Fatalf("Table 1 rows = %d", len(tab.Rows))
	}
	// First row: 500 kHz, SF 9, 2 µs, 976 Hz, 976 bps, -123 dBm.
	if got := cell(t, tab, 0, 2); got != 2 {
		t.Errorf("time tolerance = %v µs", got)
	}
	if got := cell(t, tab, 0, 4); got < 976 || got > 977 {
		t.Errorf("bitrate = %v", got)
	}
	if got := cell(t, tab, 0, 5); got != -123 {
		t.Errorf("sensitivity = %v", got)
	}
}

func TestFig8SideLobes(t *testing.T) {
	res := runByID(t, "F8")
	tab := res.Tables[0]
	// Row at 1.5 bins: ~-13.5 dB (the paper's SKIP=2 drowning figure).
	for _, row := range tab.Rows {
		if row[0] == "1.500" {
			if v := mustF(t, row[1]); v > -12.5 || v < -14.5 {
				t.Fatalf("first side lobe %v dB", v)
			}
			return
		}
	}
	t.Fatal("1.5-bin row missing")
}

func TestFig12NearFarShape(t *testing.T) {
	res := runByID(t, "F12")
	tab := res.Tables[0]
	last := tab.Rows[len(tab.Rows)-1] // highest SNR row
	single := mustF(t, last[1])
	plus40 := mustF(t, last[3])
	plus45 := mustF(t, last[4])
	// At the top of the SNR range, +40 dB interference is harmless
	// while +45 dB degrades (Fig. 12's message).
	if plus40 > single+0.02 {
		t.Fatalf("+40 dB BER %v vs single %v", plus40, single)
	}
	if plus45 < plus40 {
		t.Fatalf("+45 dB should be worse than +40 dB: %v vs %v", plus45, plus40)
	}
}

func TestFig15bDynamicRange(t *testing.T) {
	res := runByID(t, "F15B")
	tab := res.Tables[0]
	first := mustF(t, tab.Rows[0][1])              // 2-bin separation
	last := mustF(t, tab.Rows[len(tab.Rows)-1][1]) // mid-spectrum
	if first > 12 {
		t.Fatalf("2-bin tolerance %v dB too generous (paper: ~5)", first)
	}
	if last < 28 || last > 42 {
		t.Fatalf("mid-spectrum tolerance %v dB (paper: ~35)", last)
	}
	if last <= first {
		t.Fatal("tolerance should grow with separation")
	}
}

func TestFig17Shape(t *testing.T) {
	res := runByID(t, "F17")
	tab := res.Tables[0]
	lastRow := tab.Rows[len(tab.Rows)-1]
	fixed := mustF(t, lastRow[1])
	ns := mustF(t, lastRow[4])
	ideal := mustF(t, lastRow[3])
	if ns < 10*fixed {
		t.Fatalf("NetScatter %v vs fixed %v: gain too small", ns, fixed)
	}
	if ns > ideal {
		t.Fatal("measured above ideal")
	}
	if ns < 0.7*ideal {
		t.Fatalf("measured %v too far below ideal %v", ns, ideal)
	}
}

func TestFig19LatencyFlat(t *testing.T) {
	res := runByID(t, "F19")
	tab := res.Tables[0]
	nsFirst := mustF(t, tab.Rows[0][3])
	nsLast := mustF(t, tab.Rows[len(tab.Rows)-1][3])
	if nsFirst != nsLast {
		t.Fatalf("NetScatter latency should be flat: %v vs %v", nsFirst, nsLast)
	}
	fixedLast := mustF(t, tab.Rows[len(tab.Rows)-1][1])
	if fixedLast < 30*nsLast {
		t.Fatalf("latency gain only %vx", fixedLast/nsLast)
	}
}

func TestMultiAPDiversityShape(t *testing.T) {
	res := runByID(t, "M1")
	tab := res.Tables[0]
	if len(tab.Rows) != 6 { // k ∈ {1,2,4} × quick ns {16, 64}
		t.Fatalf("M1 rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		comb := mustF(t, row[2])
		best := mustF(t, row[3])
		mean := mustF(t, row[4])
		// Selection combining can never do worse than the best single
		// AP, and the best AP never worse than the average AP.
		if comb > best+1e-9 {
			t.Fatalf("combined PER %v above best-AP PER %v (row %v)", comb, best, row)
		}
		if best > mean+1e-9 {
			t.Fatalf("best-AP PER %v above mean-AP PER %v (row %v)", best, mean, row)
		}
	}
	// k=1 rows: combining over one AP is exactly that AP.
	for _, row := range tab.Rows[:2] {
		if comb, best := mustF(t, row[2]), mustF(t, row[3]); comb != best {
			t.Fatalf("k=1 combined PER %v != single-AP PER %v", comb, best)
		}
	}
}

func TestSoftCombiningShape(t *testing.T) {
	res := runByID(t, "M2")
	tab := res.Tables[0]
	if len(tab.Rows) != 6 { // k ∈ {1,2,4} × {line, optimized} × quick n {192}
		t.Fatalf("M2 rows = %d", len(tab.Rows))
	}
	strictGain := false
	for _, row := range tab.Rows {
		k := mustF(t, row[0])
		soft := mustF(t, row[3])
		sel := mustF(t, row[4])
		best := mustF(t, row[5])
		gained := mustF(t, row[6])
		// The PER ladder: soft combining selects over {per-AP decodes,
		// combined decode}, so it can never do worse than selection,
		// and selection never worse than the best single AP.
		if soft > sel+1e-9 {
			t.Fatalf("soft PER %v above selection PER %v (row %v)", soft, sel, row)
		}
		if sel > best+1e-9 {
			t.Fatalf("selection PER %v above best-AP PER %v (row %v)", sel, best, row)
		}
		if gained < 0 {
			t.Fatalf("soft combining lost %v frames (row %v)", gained, row)
		}
		// k=1: the combined spectrum is the single AP's spectrum, so the
		// soft outcome degenerates to selection exactly.
		if k == 1 && soft != sel {
			t.Fatalf("k=1 soft PER %v != selection PER %v (row %v)", soft, sel, row)
		}
		if k >= 2 && soft < sel {
			strictGain = true
		}
	}
	// The tentpole's acceptance shape: summing spectra must rescue
	// frames that every individual AP lost at some k >= 2.
	if !strictGain {
		t.Fatal("soft combining never strictly beat selection at k >= 2")
	}
	// Rows come in (line, optimized) pairs per k; the optimizer must
	// never be worse than the line placement under its own proxy.
	for r := 0; r+1 < len(tab.Rows); r += 2 {
		line, opt := mustF(t, tab.Rows[r][7]), mustF(t, tab.Rows[r+1][7])
		if opt > line+1e-12 {
			t.Fatalf("optimized placement proxy %v above line %v (k=%v)", opt, line, tab.Rows[r][0])
		}
	}
}

func TestTrajectoryDopplerShape(t *testing.T) {
	res := runByID(t, "R1")
	tab := res.Tables[0]
	if len(tab.Rows) != 2 { // quick: doppler {0, 5}
		t.Fatalf("R1 rows = %d", len(tab.Rows))
	}
	// Doppler 0 is the oracle row: no evolved fading, so nothing can be
	// attributed to it and the effective rho must read 0.
	if rho := mustF(t, tab.Rows[0][1]); rho != 0 {
		t.Fatalf("doppler-0 effective rho = %v, want 0", rho)
	}
	if lost := mustF(t, tab.Rows[0][4]); lost != 0 {
		t.Fatalf("doppler-0 row lost %v frames to fading", lost)
	}
	// The moving-channel row must carry a correlated (rho > 0) process.
	if rho := mustF(t, tab.Rows[1][1]); rho <= 0 || rho >= 1 {
		t.Fatalf("doppler-5 effective rho = %v", rho)
	}
	for _, row := range tab.Rows {
		if per := mustF(t, row[3]); per < 0 || per > 1 {
			t.Fatalf("mean PER %v out of range (row %v)", per, row)
		}
	}
}

func TestTrajectoryChurnShape(t *testing.T) {
	res := runByID(t, "R2")
	tab := res.Tables[0]
	if len(tab.Rows) != 2 { // quick: k ∈ {1,2} × churn {0.2}
		t.Fatalf("R2 rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if per := mustF(t, row[2]); per < 0 || per > 1 {
			t.Fatalf("mean PER %v out of range (row %v)", per, row)
		}
		// Heavy churn must exercise the loss/re-association pipeline.
		if lost := mustF(t, row[3]); lost == 0 {
			t.Fatalf("no AP-side losses under churn (row %v)", row)
		}
		if re := mustF(t, row[4]); re == 0 {
			t.Fatalf("no re-associations under churn (row %v)", row)
		}
	}
}

func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(quickCfg())
			if err != nil {
				t.Fatal(err)
			}
			out := res.Format()
			if !strings.Contains(out, e.ID) {
				t.Errorf("formatted output missing ID")
			}
			for _, tab := range res.Tables {
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Fatalf("ragged row in %s: %v", e.ID, row)
					}
				}
			}
		})
	}
}

func TestResultFormatAlignment(t *testing.T) {
	r := &Result{
		ID:    "X",
		Title: "demo",
		Tables: []Table{{
			Columns: []string{"a", "long-column"},
			Rows:    [][]string{{"1", "2"}, {"333333", "4"}},
		}},
		Notes: []string{"hello"},
	}
	out := r.Format()
	if !strings.Contains(out, "note: hello") {
		t.Fatal("note missing")
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 5 {
		t.Fatal("too few lines")
	}
}

func mustF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}
