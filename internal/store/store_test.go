package store

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"wls/internal/vclock"
	"wls/internal/wire"
)

func newStore() *Store { return New("db", vclock.System) }

func fields(kv ...string) map[string]string {
	m := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

func TestPutGetDelete(t *testing.T) {
	s := newStore()
	r := s.Put("acct", "a1", fields("balance", "100"))
	if r.Version != 1 {
		t.Fatalf("version = %d", r.Version)
	}
	got, ok := s.Get("acct", "a1")
	if !ok || got.Fields["balance"] != "100" {
		t.Fatalf("got %+v ok=%v", got, ok)
	}
	r2 := s.Put("acct", "a1", fields("balance", "90"))
	if r2.Version != 2 {
		t.Fatalf("version after update = %d", r2.Version)
	}
	if !s.Delete("acct", "a1") {
		t.Fatal("delete existing returned false")
	}
	if _, ok := s.Get("acct", "a1"); ok {
		t.Fatal("row survived delete")
	}
	if s.Delete("acct", "a1") {
		t.Fatal("delete of missing returned true")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := newStore()
	s.Put("t", "k", fields("f", "v"))
	r, _ := s.Get("t", "k")
	r.Fields["f"] = "mutated"
	r2, _ := s.Get("t", "k")
	if r2.Fields["f"] != "v" {
		t.Fatal("Get aliases internal state")
	}
}

func TestScanOrderAndFilter(t *testing.T) {
	s := newStore()
	for i := 9; i >= 0; i-- {
		s.Put("t", fmt.Sprintf("k%d", i), fields("n", fmt.Sprint(i)))
	}
	all := s.Scan("t", nil)
	if len(all) != 10 || all[0].Key != "k0" || all[9].Key != "k9" {
		t.Fatalf("scan order wrong: %v", all)
	}
	odd := s.Scan("t", func(r Row) bool { return r.Fields["n"] == "3" })
	if len(odd) != 1 || odd[0].Key != "k3" {
		t.Fatalf("filter wrong: %v", odd)
	}
	if s.Count("t") != 10 {
		t.Fatalf("count = %d", s.Count("t"))
	}
}

func TestTransactionalCommitVisibility(t *testing.T) {
	s := newStore()
	sess := s.Session("t1")
	sess.Insert("t", "k", fields("v", "1"))
	if _, ok := s.Get("t", "k"); ok {
		t.Fatal("staged write visible before commit")
	}
	if err := sess.Commit("t1"); err != nil {
		t.Fatal(err)
	}
	if r, ok := s.Get("t", "k"); !ok || r.Fields["v"] != "1" {
		t.Fatal("committed write not visible")
	}
}

func TestTransactionalRollbackDiscards(t *testing.T) {
	s := newStore()
	s.Put("t", "k", fields("v", "orig"))
	sess := s.Session("t1")
	sess.Update("t", "k", fields("v", "changed"))
	sess.Rollback("t1")
	if r, _ := s.Get("t", "k"); r.Fields["v"] != "orig" {
		t.Fatal("rollback leaked a write")
	}
}

func TestInsertDuplicateFailsAtPrepare(t *testing.T) {
	s := newStore()
	s.Put("t", "k", fields("v", "1"))
	sess := s.Session("t1")
	sess.Insert("t", "k", fields("v", "2"))
	if err := sess.Prepare("t1"); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("want ErrDuplicate, got %v", err)
	}
}

func TestOptimisticVersionConflict(t *testing.T) {
	s := newStore()
	r := s.Put("t", "k", fields("v", "1")) // version 1

	sess := s.Session("t1")
	sess.UpdateVersioned("t", "k", r.Version, fields("v", "2"))

	// Backdoor update bumps the version before t1 commits.
	s.Put("t", "k", fields("v", "99"))

	err := sess.Commit("t1")
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("want ErrConflict, got %v", err)
	}
	if got, _ := s.Get("t", "k"); got.Fields["v"] != "99" {
		t.Fatal("conflicting write applied anyway")
	}
	if s.Metrics().Counter("store.conflicts").Value() == 0 {
		t.Fatal("conflict not counted")
	}
}

func TestOptimisticVersionSuccess(t *testing.T) {
	s := newStore()
	r := s.Put("t", "k", fields("v", "1"))
	sess := s.Session("t1")
	sess.UpdateVersioned("t", "k", r.Version, fields("v", "2"))
	if err := sess.Commit("t1"); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get("t", "k")
	if got.Fields["v"] != "2" || got.Version != 2 {
		t.Fatalf("got %+v", got)
	}
}

func TestOptimisticWhereFields(t *testing.T) {
	s := newStore()
	s.Put("t", "k", fields("price", "10", "qty", "5"))
	sess := s.Session("t1")
	// WHERE price=10: holds.
	sess.UpdateWhere("t", "k", fields("price", "10"), fields("price", "12", "qty", "5"))
	if err := sess.Commit("t1"); err != nil {
		t.Fatal(err)
	}
	sess2 := s.Session("t2")
	// WHERE price=10: now stale.
	sess2.UpdateWhere("t", "k", fields("price", "10"), fields("price", "11"))
	if err := sess2.Commit("t2"); !errors.Is(err, ErrConflict) {
		t.Fatalf("want ErrConflict, got %v", err)
	}
}

func TestDeleteVersionedConflict(t *testing.T) {
	s := newStore()
	r := s.Put("t", "k", fields("v", "1"))
	s.Put("t", "k", fields("v", "2")) // bump version
	sess := s.Session("t1")
	sess.DeleteVersioned("t", "k", r.Version)
	if err := sess.Commit("t1"); !errors.Is(err, ErrConflict) {
		t.Fatalf("want ErrConflict, got %v", err)
	}
}

func TestPessimisticLockBlocksSecondTx(t *testing.T) {
	s := newStore()
	s.Put("t", "k", fields("v", "1"))
	s1 := s.Session("t1")
	if _, _, err := s1.GetForUpdate("t", "k"); err != nil {
		t.Fatal(err)
	}

	s2 := s.Session("t2")
	s2.LockTimeout = 50 * time.Millisecond
	if err := s2.Lock("t", "k"); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("want ErrLockTimeout, got %v", err)
	}

	// After t1 commits, t2 can lock.
	if err := s1.Commit("t1"); err != nil {
		t.Fatal(err)
	}
	s2b := s.Session("t2b")
	if err := s2b.Lock("t", "k"); err != nil {
		t.Fatal(err)
	}
	s2b.Rollback("t2b")
}

func TestLockHandoffFIFO(t *testing.T) {
	s := newStore()
	s1 := s.Session("t1")
	if err := s1.Lock("t", "k"); err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 2)
	var wg sync.WaitGroup
	for _, id := range []string{"t2", "t3"} {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := s.Session(id)
			if err := sess.Lock("t", "k"); err != nil {
				t.Error(err)
				return
			}
			got <- id
			sess.Rollback(id)
		}()
		time.Sleep(20 * time.Millisecond) // order the waiters
	}
	s1.Rollback("t1")
	wg.Wait()
	close(got)
	var order []string
	for id := range got {
		order = append(order, id)
	}
	if len(order) != 2 {
		t.Fatalf("both waiters should acquire, got %v", order)
	}
}

func TestLockReentrant(t *testing.T) {
	s := newStore()
	sess := s.Session("t1")
	if err := sess.Lock("t", "k"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Lock("t", "k"); err != nil {
		t.Fatalf("reentrant lock: %v", err)
	}
	sess.Rollback("t1")
	if owner := s.locks.ownerOf("t", "k"); owner != "" {
		t.Fatalf("lock not fully released: owner=%q", owner)
	}
}

func TestPrepareLocksWriteSet(t *testing.T) {
	s := newStore()
	s.Put("t", "k", fields("v", "1"))
	s1 := s.Session("t1")
	s1.Update("t", "k", fields("v", "2"))
	if err := s1.Prepare("t1"); err != nil {
		t.Fatal(err)
	}
	// Another tx cannot lock the row while t1 is prepared.
	s2 := s.Session("t2")
	s2.LockTimeout = 30 * time.Millisecond
	if err := s2.Lock("t", "k"); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("prepared write set not locked: %v", err)
	}
	s1.Commit("t1")
}

func TestTriggersFireOnCommitAndAutocommit(t *testing.T) {
	s := newStore()
	var mu sync.Mutex
	var seen []Change
	s.RegisterTrigger("t", func(c Change) {
		mu.Lock()
		seen = append(seen, c)
		mu.Unlock()
	})
	s.Put("t", "k1", fields("v", "1")) // autocommit → trigger
	sess := s.Session("t1")
	sess.Update("t", "k1", fields("v", "2"))
	sess.Insert("t", "k2", fields("v", "3"))
	sess.Commit("t1")

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 3 {
		t.Fatalf("trigger fired %d times, want 3", len(seen))
	}
	if seen[1].Table != "t" || seen[1].Key != "k1" || seen[1].Op != OpPut {
		t.Fatalf("change = %+v", seen[1])
	}
}

func TestChangeLogLSNsMonotonic(t *testing.T) {
	s := newStore()
	s.LastLSN() // the checkpoint the window starts at
	for i := 0; i < 5; i++ {
		s.Put("t", fmt.Sprintf("k%d", i), fields("v", "x"))
	}
	s.Delete("t", "k0")
	changes, err := s.Changes(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 6 {
		t.Fatalf("changes = %d", len(changes))
	}
	for i := 1; i < len(changes); i++ {
		if changes[i].LSN <= changes[i-1].LSN {
			t.Fatal("LSNs not strictly increasing")
		}
	}
	// Log sniffing from a checkpoint.
	mid := changes[2].LSN
	tail, err := s.Changes(mid)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 3 || tail[0].LSN != mid+1 {
		t.Fatalf("Changes(since) wrong: %+v", tail)
	}
	if s.LastLSN() != changes[5].LSN {
		t.Fatal("LastLSN mismatch")
	}
}

func TestConcurrentAutocommitWriters(t *testing.T) {
	s := newStore()
	s.LastLSN() // the checkpoint the window starts at
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Put("t", fmt.Sprintf("k%d-%d", i, j), fields("v", "x"))
			}
		}()
	}
	wg.Wait()
	if s.Count("t") != 800 {
		t.Fatalf("count = %d", s.Count("t"))
	}
	changes, err := s.Changes(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 800 {
		t.Fatalf("changes = %d", len(changes))
	}
}

// TestUnfollowedStoreKeepsNoWindow: a store no reader has taken a
// checkpoint of keeps no change history; a reader that asks for it gets the
// resync signal, and from its checkpoint on the window is kept.
func TestUnfollowedStoreKeepsNoWindow(t *testing.T) {
	s := newStore()
	for i := 0; i < 10000; i++ {
		s.Put("t", "k", fields("n", strconv.Itoa(i)))
	}
	s.mu.RLock()
	changes, n, trim := s.changes, s.n, s.trimLSN
	s.mu.RUnlock()
	if changes != nil || n != 0 || trim != 10000 {
		t.Fatalf("unfollowed store holds a ring of %d (%d live, trimLSN %d), want none (trimLSN 10000)", len(changes), n, trim)
	}
	if _, err := s.Changes(0); !errors.Is(err, ErrChangesTrimmed) {
		t.Fatalf("Changes(0) = %v, want ErrChangesTrimmed", err)
	}
	s.Delete("t", "k")
	if ch, err := s.Changes(10000); err != nil || len(ch) != 1 || ch[0] != (Change{LSN: 10001, Table: "t", Key: "k", Op: OpDelete}) {
		t.Fatalf("Changes(10000) after the first checkpoint = %+v, %v", ch, err)
	}
}

// TestCheckpointTakenMidStreamIsNeverTrimmed: a reader that takes its
// checkpoint while writers commit reads every change after it, densely,
// however the checkpoint interleaves with the commits.
func TestCheckpointTakenMidStreamIsNeverTrimmed(t *testing.T) {
	s := newStore()
	const writers, each = 4, 400 // 1 600 changes at most: inside the 4 096 window
	var written atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Put("t", fmt.Sprintf("k%d-%d", i, j), fields("v", "x"))
				written.Add(1)
			}
		}()
	}
	halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer halt()
	for written.Load() < 100 {
		runtime.Gosched()
	}
	checkpoint := s.LastLSN()
	cursor := checkpoint
	read := func() {
		ch, err := s.Changes(cursor)
		if err != nil {
			t.Fatalf("Changes(%d) after checkpoint %d: %v", cursor, checkpoint, err)
		}
		for _, c := range ch {
			if c.LSN != cursor+1 {
				t.Fatalf("after LSN %d came %d: the window is not dense", cursor, c.LSN)
			}
			cursor = c.LSN
		}
	}
	for written.Load() < int64(checkpoint)+200 && written.Load() < writers*each {
		read()
		runtime.Gosched()
	}
	halt()
	read()
	if last := s.LastLSN(); cursor != last {
		t.Fatalf("read up to LSN %d, store is at %d", cursor, last)
	}
}

// TestTriggersFireOnUnfollowedStore: a trigger's change is built from the
// write itself, so it fires in full on a store that keeps no window.
func TestTriggersFireOnUnfollowedStore(t *testing.T) {
	s := newStore()
	var seen []Change
	s.RegisterTrigger("t", func(c Change) { seen = append(seen, c) })
	s.Put("u", "other", fields("v", "0"))
	s.Put("t", "k1", fields("v", "1"))
	sess := s.Session("t1")
	sess.Delete("t", "k1")
	if err := sess.Commit("t1"); err != nil {
		t.Fatal(err)
	}
	want := []Change{{LSN: 2, Table: "t", Key: "k1", Op: OpPut}, {LSN: 3, Table: "t", Key: "k1", Op: OpDelete}}
	if len(seen) != len(want) || seen[0] != want[0] || seen[1] != want[1] {
		t.Fatalf("triggers saw %+v, want %+v", seen, want)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.changes != nil {
		t.Fatalf("a trigger made the store keep a window of %d", len(s.changes))
	}
}

// TestHotRowAtomicIncrementProperty: concurrent optimistic increments with
// retry never lose an update.
func TestHotRowAtomicIncrementProperty(t *testing.T) {
	s := newStore()
	s.Put("t", "counter", fields("n", "0"))
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				for attempt := 0; ; attempt++ {
					txID := fmt.Sprintf("w%d-%d-%d", w, i, attempt)
					r, _ := s.Get("t", "counter")
					var n int
					fmt.Sscan(r.Fields["n"], &n)
					sess := s.Session(txID)
					sess.UpdateVersioned("t", "counter", r.Version, fields("n", fmt.Sprint(n+1)))
					if err := sess.Commit(txID); err == nil {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	r, _ := s.Get("t", "counter")
	if r.Fields["n"] != fmt.Sprint(writers*perWriter) {
		t.Fatalf("lost updates: n=%s want %d", r.Fields["n"], writers*perWriter)
	}
}

// TestReadsNeverTrailTheChangeLog: while commits land, a reader that has
// seen LastLSN L then reads a row no older than L, and whole — whether it
// finds a commit in flight or reads the backend alone. One row is written,
// so its version counts the changes.
func TestReadsNeverTrailTheChangeLog(t *testing.T) {
	s := newStore()
	s.Put("t", "k", fields("v", "1"))
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				lsn := s.LastLSN()
				row, ok := s.Get("t", "k")
				if !ok || row.Version < lsn || row.Fields["v"] != strconv.FormatUint(row.Version, 10) {
					t.Errorf("after LastLSN %d, Get = %+v, %v", lsn, row, ok)
					return
				}
			}
		}()
	}
	for i := 2; i <= 2000; i++ {
		s.Put("t", "k", fields("v", strconv.Itoa(i)))
	}
	close(done)
	wg.Wait()
}

func TestSessionIdentityPerTx(t *testing.T) {
	s := newStore()
	if s.Session("a") != s.Session("a") {
		t.Fatal("same txID should return same session")
	}
	if s.Session("a") == s.Session("b") {
		t.Fatal("different txIDs should differ")
	}
	s.Session("a").Rollback("a")
}

// --- RowSets ---------------------------------------------------------------

func makeRowSetStore() *Store {
	s := newStore()
	s.Put("products", "p1", fields("name", "anvil", "price", "10"))
	s.Put("products", "p2", fields("name", "rocket", "price", "99"))
	return s
}

func TestRowSetQueryEditSubmit(t *testing.T) {
	s := makeRowSetStore()
	rs := s.Query("products", nil)
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	if !rs.Set("p1", "price", "12") {
		t.Fatal("Set failed")
	}
	sess := s.Session("t1")
	rs.Submit(sess)
	if err := sess.Commit("t1"); err != nil {
		t.Fatal(err)
	}
	r, _ := s.Get("products", "p1")
	if r.Fields["price"] != "12" {
		t.Fatalf("price = %s", r.Fields["price"])
	}
}

func TestRowSetConflictOnStaleSubmit(t *testing.T) {
	s := makeRowSetStore()
	rs := s.Query("products", nil)
	rs.Set("p1", "price", "12")
	// Someone else changes p1 while the RowSet is disconnected.
	s.Put("products", "p1", fields("name", "anvil", "price", "50"))
	sess := s.Session("t1")
	rs.Submit(sess)
	if err := sess.Commit("t1"); !errors.Is(err, ErrConflict) {
		t.Fatalf("want ErrConflict, got %v", err)
	}
}

func TestRowSetDeleteSubmit(t *testing.T) {
	s := makeRowSetStore()
	rs := s.Query("products", nil)
	rs.MarkDeleted("p2")
	sess := s.Session("t1")
	rs.Submit(sess)
	if err := sess.Commit("t1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("products", "p2"); ok {
		t.Fatal("p2 survived delete submit")
	}
}

func TestRowSetCleanSubmitIsNoop(t *testing.T) {
	s := makeRowSetStore()
	rs := s.Query("products", nil)
	sess := s.Session("t1")
	rs.Submit(sess)
	if err := sess.Commit("t1"); err != nil {
		t.Fatal(err)
	}
	r, _ := s.Get("products", "p1")
	if r.Version != 1 {
		t.Fatal("clean submit bumped version")
	}
}

func TestRowSetBinaryRoundTrip(t *testing.T) {
	s := makeRowSetStore()
	rs := s.Query("products", nil)
	rs.Set("p1", "price", "42")
	rs.MarkDeleted("p2")
	b := rs.EncodeBinary()
	rs2, err := DecodeBinary(b)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := rs2.Get("p1", "price"); v != "42" {
		t.Fatalf("price = %s", v)
	}
	if !rs2.Rows[1].Deleted {
		t.Fatal("Deleted flag lost")
	}
	if rs2.Rows[0].Orig["price"] != "10" {
		t.Fatal("Orig lost")
	}
}

// TestALyingRowSetCountFails feeds DecodeBinary — a RowSet comes from a
// client (§3.3) — a short RowSet whose row count is negative or far beyond
// what its bytes hold: it must fail, not panic, and size nothing by the
// count.
func TestALyingRowSetCountFails(t *testing.T) {
	for _, n := range []int{-1, 1 << 24, 1 << 40} {
		e := wire.NewEncoder(8)
		e.String("t")
		e.Int(n)
		e.String("k")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rs, err := DecodeBinary(e.Bytes())
		runtime.ReadMemStats(&after)
		if err == nil || rs != nil {
			t.Fatalf("count %d: got %v, %v; want an error", n, rs, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("count %d: allocated %d bytes", n, got)
		}
	}
}

func TestRowSetXMLRoundTrip(t *testing.T) {
	s := makeRowSetStore()
	rs := s.Query("products", nil)
	rs.Set("p2", "name", "bigger rocket")
	b, err := rs.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := DecodeXML(b)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Table != "products" || len(rs2.Rows) != 2 {
		t.Fatalf("decoded %+v", rs2)
	}
	if v, _ := rs2.Get("p2", "name"); v != "bigger rocket" {
		t.Fatalf("name = %q", v)
	}
}

func TestRowSetPropertyBinaryRoundTrip(t *testing.T) {
	f := func(keys []string, vals []string) bool {
		rs := &RowSet{Table: "t"}
		for i, k := range keys {
			v := "v"
			if i < len(vals) {
				v = vals[i]
			}
			rs.Rows = append(rs.Rows, RowSetRow{
				Key:  k,
				Orig: map[string]string{"f": v},
				Cur:  map[string]string{"f": v + "x"},
			})
		}
		out, err := DecodeBinary(rs.EncodeBinary())
		if err != nil {
			return false
		}
		if len(out.Rows) != len(rs.Rows) {
			return false
		}
		for i := range out.Rows {
			if out.Rows[i].Key != rs.Rows[i].Key ||
				!equalFields(out.Rows[i].Orig, rs.Rows[i].Orig) ||
				!equalFields(out.Rows[i].Cur, rs.Rows[i].Cur) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestVirtualClockLockTimeout(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	s := New("db", clk)
	s1 := s.Session("t1")
	if err := s1.Lock("t", "k"); err != nil {
		t.Fatal(err)
	}
	s2 := s.Session("t2")
	s2.LockTimeout = time.Second
	errCh := make(chan error, 1)
	go func() { errCh <- s2.Lock("t", "k") }()
	// Wait for the waiter to queue, then advance past the timeout.
	for i := 0; i < 100; i++ {
		time.Sleep(2 * time.Millisecond)
		clk.Advance(20 * time.Millisecond)
		select {
		case err := <-errCh:
			if !errors.Is(err, ErrLockTimeout) {
				t.Fatalf("want ErrLockTimeout, got %v", err)
			}
			return
		default:
		}
	}
	t.Fatal("lock wait never timed out on virtual clock")
}
