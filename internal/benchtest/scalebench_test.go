package benchtest

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// e33Small is the CI-sized E33: same four phases on an 8-server cluster.
func e33Small() e33Params {
	return e33Params{servers: 8, users: 48, requests: 8,
		satTime: 300 * time.Millisecond, satRate: 2000, sample: 20_000}
}

// TestE33SmallN runs the scale-out experiment end to end at CI size and
// asserts its headline invariants: sessions survive both rebalance epoch
// changes, the key movement of a single join/leave stays under 2/N, and
// the flash crowd is actually shed. That ring lookups allocate nothing is
// partition's TestGateRingLookupZeroAlloc.
func TestE33SmallN(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock load run")
	}
	tbl := e33Run(e33Small())
	if len(tbl.Rows) != 4 {
		t.Fatalf("want 4 phase rows, got %d:\n%s", len(tbl.Rows), tbl)
	}
	col := func(name string) int {
		for i, c := range tbl.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("no column %q", name)
		return -1
	}
	iLost, iMoved, iBound := col("lost"), col("moved_frac"), col("bound_2/N")
	iOK, iDenied, iShed := col("ok"), col("denied"), col("shed")

	for _, row := range tbl.Rows[:3] {
		if row[iLost] != "0" {
			t.Errorf("phase %s lost %s sessions:\n%s", row[0], row[iLost], tbl)
		}
	}
	for _, row := range tbl.Rows[1:3] {
		moved, err := strconv.ParseFloat(strings.Fields(row[iMoved])[0], 64)
		if err != nil {
			t.Fatalf("phase %s moved_frac %q: %v", row[0], row[iMoved], err)
		}
		bound, _ := strconv.ParseFloat(row[iBound], 64)
		if moved > bound {
			t.Errorf("phase %s moved %.4f of the keys, bound %.4f", row[0], moved, bound)
		}
		if ok, _ := strconv.Atoi(row[iOK]); ok == 0 {
			t.Errorf("phase %s: no redrive request succeeded", row[0])
		}
	}
	sat := tbl.Rows[3]
	denied, _ := strconv.Atoi(sat[iDenied])
	shed, _ := strconv.Atoi(sat[iShed])
	if denied+shed == 0 {
		t.Errorf("saturation phase refused nothing (denied=%d shed=%d):\n%s", denied, shed, tbl)
	}
	if ok, _ := strconv.Atoi(sat[iOK]); ok == 0 {
		t.Errorf("saturation phase served nothing:\n%s", tbl)
	}
}
