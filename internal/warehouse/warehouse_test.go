package warehouse

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"wls/internal/store"
	"wls/internal/vclock"
)

func seats(n int) map[string]string {
	return map[string]string{"seats": fmt.Sprint(n), "route": "SFO-JFK"}
}

func newPair(clk vclock.Clock) (*store.Store, *store.Store) {
	op := store.New("operational", clk)
	copyDB := store.New("middle-tier", clk)
	return op, copyDB
}

func TestInitialLoadCopiesRows(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	op, copyDB := newPair(clk)
	for i := 0; i < 10; i++ {
		op.Put("flights", fmt.Sprintf("f%d", i), seats(100))
	}
	etl := NewETL(op, copyDB, clk, time.Second, nil, "flights")
	if n := etl.InitialLoad("flights"); n != 10 {
		t.Fatalf("loaded %d", n)
	}
	if len(copyDB.Scan("flights", nil)) != 10 {
		t.Fatalf("copy has %d rows", len(copyDB.Scan("flights", nil)))
	}
	if etl.Lag() != 0 {
		t.Fatalf("lag = %d after initial load", etl.Lag())
	}
}

func TestIncrementalRunPropagatesChanges(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	op, copyDB := newPair(clk)
	op.Put("flights", "f1", seats(100))
	etl := NewETL(op, copyDB, clk, time.Second, nil, "flights")
	etl.InitialLoad("flights")

	op.Put("flights", "f1", seats(99))
	op.Put("flights", "f2", seats(50))
	op.Delete("flights", "f1")
	if etl.Lag() != 3 {
		t.Fatalf("lag = %d, want 3", etl.Lag())
	}
	etl.RunOnce()
	if _, ok := copyDB.Get("flights", "f1"); ok {
		t.Fatal("delete not propagated")
	}
	if r, _ := copyDB.Get("flights", "f2"); r.Fields["seats"] != "50" {
		t.Fatal("insert not propagated")
	}
	if etl.Lag() != 0 {
		t.Fatalf("lag = %d after run", etl.Lag())
	}
}

// TestDeleteRightAfterInitialLoadPropagates: InitialLoad's checkpoint is
// the first a reader takes of the operational store, so the store keeps
// the change right after it and the next run applies it incrementally.
func TestDeleteRightAfterInitialLoadPropagates(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	op, copyDB := newPair(clk)
	op.Put("flights", "f1", seats(100))
	op.Put("flights", "f2", seats(100))
	etl := NewETL(op, copyDB, clk, time.Second, nil, "flights")
	etl.InitialLoad("flights")
	op.Delete("flights", "f1")
	if n := etl.RunOnce(); n != 1 {
		t.Fatalf("RunOnce applied %d, want the one delete", n)
	}
	if _, ok := copyDB.Get("flights", "f1"); ok {
		t.Fatal("delete not propagated")
	}
	if n := etl.reg.Counter("etl.resyncs").Value(); n != 0 {
		t.Fatalf("etl.resyncs = %d, want 0", n)
	}
}

func TestTransformPreDigests(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	op, copyDB := newPair(clk)
	op.Put("flights", "f1", seats(3))
	// Pre-digest to an XML-ish single field, as §5.2 suggests.
	xmlize := func(table string, row store.Row) (string, map[string]string, bool) {
		return "flights_xml", map[string]string{
			"doc": "<flight route='" + row.Fields["route"] + "' seats='" + row.Fields["seats"] + "'/>",
		}, true
	}
	etl := NewETL(op, copyDB, clk, time.Second, xmlize, "flights")
	etl.InitialLoad("flights")
	r, ok := copyDB.Get("flights_xml", "f1")
	if !ok || r.Fields["doc"] != "<flight route='SFO-JFK' seats='3'/>" {
		t.Fatalf("doc = %q", r.Fields["doc"])
	}
}

func TestTransformCanFilter(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	op, copyDB := newPair(clk)
	op.Put("flights", "f1", seats(0))
	op.Put("secrets", "s1", map[string]string{"k": "v"})
	keepFlights := func(table string, row store.Row) (string, map[string]string, bool) {
		if table != "flights" {
			return "", nil, false
		}
		return table, row.Fields, true
	}
	etl := NewETL(op, copyDB, clk, time.Second, keepFlights)
	etl.InitialLoad("flights", "secrets")
	if len(copyDB.Scan("secrets", nil)) != 0 {
		t.Fatal("filtered table leaked to the middle tier")
	}
}

func TestPeriodicETLOnClock(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	op, copyDB := newPair(clk)
	etl := NewETL(op, copyDB, clk, time.Second, nil, "flights")
	etl.InitialLoad("flights")
	etl.Start()
	defer etl.Stop()
	op.Put("flights", "f1", seats(10))
	clk.Advance(1500 * time.Millisecond)
	if _, ok := copyDB.Get("flights", "f1"); !ok {
		t.Fatal("periodic run did not propagate")
	}
}

func TestTryFulfillSuccessAndSoldOut(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	op, _ := newPair(clk)
	op.Put("flights", "f1", seats(2))
	if err := TryFulfill(op, "flights", "f1", "seats", 1, "t1"); err != nil {
		t.Fatal(err)
	}
	if err := TryFulfill(op, "flights", "f1", "seats", 1, "t2"); err != nil {
		t.Fatal(err)
	}
	err := TryFulfill(op, "flights", "f1", "seats", 1, "t3")
	if !errors.Is(err, ErrSoldOut) {
		t.Fatalf("want ErrSoldOut, got %v", err)
	}
	r, _ := op.Get("flights", "f1")
	if r.Fields["seats"] != "0" {
		t.Fatalf("seats = %s", r.Fields["seats"])
	}
}

func TestFulfillNeverOversellsUnderConcurrency(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	op, _ := newPair(clk)
	op.Put("flights", "f1", seats(10))
	var wg sync.WaitGroup
	var mu sync.Mutex
	sold, soldOut := 0, 0
	for i := 0; i < 30; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := FulfillWithRetry(op, "flights", "f1", "seats", 1, fmt.Sprintf("c%d", i), 50)
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				sold++
			} else if errors.Is(err, ErrSoldOut) {
				soldOut++
			}
		}()
	}
	wg.Wait()
	if sold != 10 || soldOut != 20 {
		t.Fatalf("sold=%d soldOut=%d, want 10/20 (overselling or underselling)", sold, soldOut)
	}
	r, _ := op.Get("flights", "f1")
	if r.Fields["seats"] != "0" {
		t.Fatalf("seats = %s", r.Fields["seats"])
	}
}

func TestStaleCopyStillFulfillsCorrectly(t *testing.T) {
	// The §5.2 model: browse against the stale middle-tier copy; the
	// critical step against the operational store is what guarantees
	// correctness.
	clk := vclock.NewVirtualAtZero()
	op, copyDB := newPair(clk)
	op.Put("flights", "f1", seats(1))
	etl := NewETL(op, copyDB, clk, time.Second, nil, "flights")
	etl.InitialLoad("flights")

	// Someone else takes the last seat; the copy is now stale.
	if err := TryFulfill(op, "flights", "f1", "seats", 1, "other"); err != nil {
		t.Fatal(err)
	}
	if r, _ := copyDB.Get("flights", "f1"); r.Fields["seats"] != "1" {
		t.Fatal("copy should be stale for this test")
	}
	// Our best-effort phase (reading the copy) says 1 seat — but the
	// critical step fails cleanly.
	err := TryFulfill(op, "flights", "f1", "seats", 1, "mine")
	if !errors.Is(err, ErrSoldOut) {
		t.Fatalf("want ErrSoldOut despite optimistic copy, got %v", err)
	}
}

func TestETLResyncsAfterChangeLogTrim(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	op, copyDB := newPair(clk)
	op.SetChangeCap(4)
	op.Put("flights", "f1", seats(100))
	etl := NewETL(op, copyDB, clk, time.Second, nil, "flights")
	etl.InitialLoad("flights")

	// More commits than the bounded change log holds: the ETL checkpoint
	// falls out of the window and incremental catch-up is impossible.
	for i := 0; i < 10; i++ {
		op.Put("flights", fmt.Sprintf("f%d", i), seats(i))
	}
	n := etl.RunOnce()
	if n != 10 {
		t.Fatalf("resync loaded %d rows, want 10", n)
	}
	if v := etl.Metrics().Counter("etl.resyncs").Value(); v != 1 {
		t.Fatalf("etl.resyncs = %d, want 1", v)
	}
	for i := 0; i < 10; i++ {
		r, ok := copyDB.Get("flights", fmt.Sprintf("f%d", i))
		if !ok || r.Fields["seats"] != fmt.Sprint(i) {
			t.Fatalf("f%d = %+v ok=%v after resync", i, r, ok)
		}
	}
	if etl.Lag() != 0 {
		t.Fatalf("lag = %d after resync", etl.Lag())
	}

	// The checkpoint restarted at the source LSN: the next change flows
	// incrementally, not via another full scan.
	op.Put("flights", "f1", seats(42))
	if etl.RunOnce() != 1 {
		t.Fatal("post-resync incremental run misbehaved")
	}
	if v := etl.Metrics().Counter("etl.resyncs").Value(); v != 1 {
		t.Fatalf("incremental run resynced again: %d", v)
	}
	if r, _ := copyDB.Get("flights", "f1"); r.Fields["seats"] != "42" {
		t.Fatal("incremental change not propagated after resync")
	}
}
