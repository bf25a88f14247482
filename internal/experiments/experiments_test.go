package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// TestPaperScaleRunners smoke-tests every surrogate-based experiment
// and checks the structural claims each figure makes.
func TestPaperScaleRunners(t *testing.T) {
	t.Run("fig1a", func(t *testing.T) {
		tbl := Fig1a()
		if len(tbl.Rows) != 12 {
			t.Fatalf("rows %d", len(tbl.Rows))
		}
	})
	t.Run("fig1b", func(t *testing.T) {
		tbl := Fig1b()
		if len(tbl.Rows) < 4 {
			t.Fatalf("too few similar-size models: %d", len(tbl.Rows))
		}
	})
	t.Run("table1", func(t *testing.T) {
		tbl := Table1(2)
		if len(tbl.Rows) != 4 {
			t.Fatalf("rows %d", len(tbl.Rows))
		}
		for _, r := range tbl.Rows {
			if !strings.HasSuffix(r[3], "%") || !strings.HasSuffix(r[6], "%") {
				t.Fatalf("missing ratio columns in %v", r)
			}
		}
	})
	t.Run("fig7a", func(t *testing.T) {
		tbl := Fig7a()
		if len(tbl.Rows) != 8 {
			t.Fatalf("rows %d", len(tbl.Rows))
		}
		if tbl.Rows[0][0] != "ACME best (ours)" {
			t.Fatalf("first row %v", tbl.Rows[0])
		}
	})
	t.Run("fig8-no-warning", func(t *testing.T) {
		for _, note := range Fig8().Notes {
			if strings.Contains(note, "WARNING") {
				t.Fatal(note)
			}
		}
	})
	t.Run("fig9", func(t *testing.T) {
		tbl := Fig9()
		if len(tbl.Rows) != 5 {
			t.Fatalf("rows %d", len(tbl.Rows))
		}
	})
	t.Run("fig12", func(t *testing.T) {
		if got := len(Fig12().Rows); got != 18 {
			t.Fatalf("rows %d", got)
		}
	})
	t.Run("fig13", func(t *testing.T) {
		if len(Fig13a().Rows) == 0 || len(Fig13b().Rows) == 0 {
			t.Fatal("empty cars tables")
		}
	})
}

// TestFig10WassersteinBeatsJS checks the headline claim of Fig. 10 on
// the real distance implementations.
func TestFig10WassersteinBeatsJS(t *testing.T) {
	tbl, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 10 {
		t.Fatalf("rows %d", len(tbl.Rows))
	}
	// The contrast note must show Wasserstein strictly above JS.
	found := false
	for _, note := range tbl.Notes {
		if strings.Contains(note, "contrast") {
			found = true
			var w, j float64
			if _, err := parseContrast(note, &w, &j); err != nil {
				t.Fatalf("unparseable note %q: %v", note, err)
			}
			if w <= j {
				t.Fatalf("wasserstein contrast %.3f not above js %.3f", w, j)
			}
		}
	}
	if !found {
		t.Fatal("missing contrast note")
	}
}

func parseContrast(note string, w, j *float64) (int, error) {
	idx := strings.Index(note, "wasserstein")
	return fmt.Sscanf(note[idx:], "wasserstein %f vs js %f", w, j)
}

// TestTableRender exercises the text renderer.
func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Notes:   []string{"note"},
	}
	tbl.AddRow("1", "2")
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== x: demo ==", "a", "bb", "note:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestMicroConfigValid ensures the shared micro config passes system
// validation.
func TestMicroConfigValid(t *testing.T) {
	if err := MicroConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFig7bMicroShape runs the real-stack header comparison at minimum
// budget and checks NAS wins.
func TestFig7bMicroShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains several headers")
	}
	tbl, err := Fig7bMicro(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if !strings.HasPrefix(r[6], "+") {
			t.Fatalf("NAS did not win at depth %s: gain %s", r[0], r[6])
		}
	}
}

// TestTable1UploadRatioBand checks the headline Table-1 ratio stays in
// the paper's neighbourhood (~6%).
func TestTable1UploadRatioBand(t *testing.T) {
	tbl := Table1(2)
	for _, r := range tbl.Rows {
		var ratio float64
		if _, err := fmt.Sscanf(r[6], "%f%%", &ratio); err != nil {
			t.Fatalf("unparseable ratio %q", r[6])
		}
		if ratio < 1 || ratio > 12 {
			t.Fatalf("upload ratio %v%% outside the paper's neighbourhood", ratio)
		}
	}
}
