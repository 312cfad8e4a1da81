package store

import (
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"wls/internal/vclock"
)

// bulkCommit stages rows inserts in one transaction on a fresh in-memory
// store and returns how long the commit took.
func bulkCommit(tb testing.TB, rows int) time.Duration {
	tb.Helper()
	s := New("db", vclock.System)
	se := s.Session("bulk")
	for i := 0; i < rows; i++ {
		se.Insert("catalog", fmt.Sprintf("sku%05d", i), map[string]string{"desc": "row"})
	}
	start := time.Now()
	if err := se.Commit("bulk"); err != nil {
		tb.Fatal(err)
	}
	return time.Since(start)
}

// BenchmarkBulkCommit is a preload-shaped commit: one transaction, many
// rows. ns/row must not depend on the size of the write set.
func BenchmarkBulkCommit(b *testing.B) {
	for _, rows := range []int{512, 4096} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				total += bulkCommit(b, rows)
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

// TestBulkCommitCostPerRowIsFlat holds the benchmark's claim in the test
// suite: eight times the rows may not cost much more per row. A per-write
// scan of the held locks made it 4–8× here. The collector is off while
// timing (a larger heap is marked for longer, which is not the commit's
// doing) and each side is the best of five, so the bound only has to absorb
// cache effects.
func TestBulkCommitCostPerRowIsFlat(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perRow := func(rows int) float64 {
		best := time.Duration(1 << 62)
		for i := 0; i < 5; i++ {
			if d := bulkCommit(t, rows); d < best {
				best = d
			}
		}
		return float64(best.Nanoseconds()) / float64(rows)
	}
	small, large := perRow(512), perRow(4096)
	t.Logf("ns/row: %.0f at 512 rows, %.0f at 4096 rows", small, large)
	if large > 2.5*small {
		t.Fatalf("commit cost per row grew from %.0f ns at 512 rows to %.0f ns at 4096", small, large)
	}
}
