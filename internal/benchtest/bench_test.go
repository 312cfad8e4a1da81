package benchtest

import (
	"strings"
	"testing"
)

func TestRegistryCompleteAndSorted(t *testing.T) {
	all := All()
	if len(all) != 34 {
		t.Fatalf("registered %d experiments, want 34 (E01–E33 without E31, + A01–A02)", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatalf("not sorted at %s/%s", all[i-1].ID, all[i].ID)
		}
	}
	for _, e := range all {
		if e.Title == "" || e.Source == "" || e.Run == nil {
			t.Fatalf("%s incomplete: %+v", e.ID, e)
		}
	}
}

func TestFindCaseInsensitive(t *testing.T) {
	if _, ok := Find("e09"); !ok {
		t.Fatal("lowercase lookup failed")
	}
	if _, ok := Find("E99"); ok {
		t.Fatal("unknown id resolved")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "X", Title: "T", Source: "S",
		Columns: []string{"a", "bb"}, Notes: "n"}
	tbl.AddRow(1, "hello")
	tbl.AddRow("longer-cell", 2)
	out := tbl.String()
	for _, want := range []string{"X — T", "source: S", "hello", "longer-cell", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestCheapExperimentsProduceSaneTables runs the sub-100ms experiments end
// to end and asserts structural sanity plus their headline shapes, so the
// harness itself is covered by `go test ./...`.
func TestCheapExperimentsProduceSaneTables(t *testing.T) {
	for _, id := range []string{"E09", "E11", "E13", "E14", "E15", "E18", "E26"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, ok := Find(id)
			if !ok {
				t.Fatalf("missing %s", id)
			}
			tbl := e.Run()
			if tbl.ID != id || len(tbl.Rows) == 0 || len(tbl.Columns) == 0 {
				t.Fatalf("degenerate table: %+v", tbl)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Fatalf("%s: ragged row %v vs columns %v", id, row, tbl.Columns)
				}
			}
		})
	}
}

// TestE05NonIdempotentNeverRunsTwice: through a crash and through replies
// lost after their handler ran, no non-idempotent op executes twice.
func TestE05NonIdempotentNeverRunsTwice(t *testing.T) {
	e, _ := Find("E05")
	tbl := e.Run()
	if len(tbl.Rows) != 4 {
		t.Fatalf("want a row per fault and method, got %v", tbl.Rows)
	}
	for _, row := range tbl.Rows {
		if row[1] == "non-idempotent" && row[5] != "0" {
			t.Fatalf("%s, %s: %s duplicate executions", row[0], row[1], row[5])
		}
	}
}

func TestE09ZeroViolations(t *testing.T) {
	e, _ := Find("E09")
	tbl := e.Run()
	if len(tbl.Rows) != 1 {
		t.Fatalf("want one ring row, got %v", tbl.Rows)
	}
	for _, row := range tbl.Rows {
		if row[2] != row[1] || row[5] != "0" {
			t.Fatalf("%s order: placed %s of %s configs with %s violations", row[0], row[2], row[1], row[5])
		}
	}
}

func TestE26ConcentratesToOne(t *testing.T) {
	e, _ := Find("E26")
	tbl := e.Run()
	if tbl.Rows[1][2] != "1" {
		t.Fatalf("concentrated backend connections = %s, want 1", tbl.Rows[1][2])
	}
	if tbl.Rows[0][2] == "1" {
		t.Fatalf("direct mode should open many connections, got %s", tbl.Rows[0][2])
	}
}

func TestRatio(t *testing.T) {
	if ratio(3, 2) != "1.50" || ratio(1, 0) != "inf" {
		t.Fatal("ratio formatting")
	}
}
