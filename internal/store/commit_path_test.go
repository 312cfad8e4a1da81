package store

// Tests for the durable commit path's three properties as they show at the
// store and across a two-store transaction: readers and staging never wait
// for a flush, overlapped prepares of conflicting transactions terminate,
// and a power cut anywhere leaves every transaction whole.

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"wls/internal/kv"
	"wls/internal/kv/kvtest"
	"wls/internal/tx"
	"wls/internal/vclock"
	"wls/internal/wire"
)

// gateFS parks every Sync while armed, announcing each on parked; once
// released, a parked Sync fails with fail when that is set.
type gateFS struct {
	kv.FS
	mu      sync.Mutex
	armed   bool
	parked  chan struct{}
	release chan struct{}
	fail    error
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (kv.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}

type gateFile struct {
	kv.File
	g *gateFS
}

func (f *gateFile) Sync() error {
	f.g.mu.Lock()
	armed := f.g.armed
	f.g.mu.Unlock()
	if armed {
		f.g.parked <- struct{}{}
		<-f.g.release
		if f.g.fail != nil {
			return f.g.fail
		}
	}
	return f.File.Sync()
}

// within fails the test if fn has not returned after a second: on a store
// that holds its image lock across the flush, fn queues behind the parked
// Sync forever.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatalf("%s waited for a commit's flush", what)
	}
}

// TestReadersAndStagingDoNotWaitForFlush parks a commit inside its Sync
// and then reads, scans, opens a session and stages: all return, and the
// read already shows the commit (visible before durable, never before
// acknowledged — PutE itself is still waiting).
func TestReadersAndStagingDoNotWaitForFlush(t *testing.T) {
	g := &gateFS{FS: kv.OSFS(), parked: make(chan struct{}, 1), release: make(chan struct{})}
	w, err := kv.OpenWAL(filepath.Join(t.TempDir(), "store.db"), kv.Options{SyncEveryCommit: true, FS: g})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open("db", vclock.System, w)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put("stock", "sku", fields("qty", "10"))

	g.mu.Lock()
	g.armed = true
	g.mu.Unlock()
	acked := make(chan error, 1)
	go func() {
		_, err := s.PutE("stock", "sku", fields("qty", "9"))
		acked <- err
	}()
	<-g.parked // the commit is inside Sync

	within(t, "Get", func() {
		if r, ok := s.Get("stock", "sku"); !ok || r.Fields["qty"] != "9" || r.Version != 2 {
			t.Errorf("Get during the flush = %+v, want the commit in flight (qty 9, v2)", r)
		}
	})
	within(t, "Scan/Count/LastLSN", func() {
		if n, rows := s.Count("stock"), s.Scan("stock", nil); n != 1 || len(rows) != 1 || s.LastLSN() != 2 {
			t.Errorf("Count=%d Scan=%d LastLSN=%d during the flush", n, len(rows), s.LastLSN())
		}
	})
	within(t, "Session and staging", func() {
		s.Session("tx-1").Insert("orders", "o-1", fields("sku", "sku"))
	})
	select {
	case err := <-acked:
		t.Fatalf("PutE returned %v before its flush finished", err)
	default:
	}
	close(g.release)
	if err := <-acked; err != nil {
		t.Fatal(err)
	}
}

// TestInFlightCommitReadsAsOneState parks a three-row commit — an update,
// a delete and an insert in a second table — inside its Sync. The kv image
// holds only what is durable, so it still shows the old rows; every read
// of the store shows the commit whole, and together with its changes: a
// log-sniffer that sees a change and then reads the row never reads the
// row from before it. After the flush the backend shows the same state.
// When the flush fails the commit is refused, the store stops, and reads
// stay where it stopped: the commit in flight is never taken back, since a
// reader may have seen it and the change log keeps it.
func TestInFlightCommitReadsAsOneState(t *testing.T) {
	t.Run("flush succeeds", func(t *testing.T) { inFlightCommitReadsAsOneState(t, nil) })
	t.Run("flush fails", func(t *testing.T) { inFlightCommitReadsAsOneState(t, errors.New("disk gone")) })
}

func inFlightCommitReadsAsOneState(t *testing.T, syncErr error) {
	g := &gateFS{FS: kv.OSFS(), parked: make(chan struct{}, 1), release: make(chan struct{}), fail: syncErr}
	w, err := kv.OpenWAL(filepath.Join(t.TempDir(), "store.db"), kv.Options{SyncEveryCommit: true, FS: g})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open("db", vclock.System, w)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Deferred after Close, so it runs first: a failed assertion must not
	// leave the commit parked on the gated fsync with Close waiting behind it.
	var unparkOnce sync.Once
	unpark := func() { unparkOnce.Do(func() { close(g.release) }) }
	defer unpark()
	s.Put("stock", "a", fields("qty", "1"))
	s.Put("stock", "b", fields("qty", "1"))
	since := s.LastLSN()

	g.mu.Lock()
	g.armed = true
	g.mu.Unlock()
	acked := make(chan error, 1)
	go func() {
		se := s.Session("tx-1")
		se.Update("stock", "a", fields("qty", "2"))
		se.Delete("stock", "b")
		se.Insert("orders", "o-1", fields("sku", "a"))
		acked <- se.Commit("tx-1")
	}()
	<-g.parked

	oneState := func(when string) {
		t.Helper()
		changes, err := s.Changes(since)
		if err != nil || len(changes) != 3 {
			t.Fatalf("%s: Changes = %v, %v; want the commit's three", when, changes, err)
		}
		if r, ok := s.Get("stock", "a"); !ok || r.Fields["qty"] != "2" || r.Version != 2 {
			t.Errorf("%s: stock/a = %+v, %v; want qty 2 at v2", when, r, ok)
		}
		if _, ok := s.Get("stock", "b"); ok {
			t.Errorf("%s: stock/b still reads after its delete", when)
		}
		if r, ok := s.Get("orders", "o-1"); !ok || r.Version != 1 {
			t.Errorf("%s: orders/o-1 = %+v, %v", when, r, ok)
		}
		if rows := s.Scan("stock", nil); len(rows) != 1 || rows[0].Key != "a" || rows[0].Fields["qty"] != "2" {
			t.Errorf("%s: Scan(stock) = %+v", when, rows)
		}
		if n, m := s.Count("stock"), s.Count("orders"); n != 1 || m != 1 {
			t.Errorf("%s: Count stock %d orders %d, want 1 and 1", when, n, m)
		}
		if got := s.Tables(); len(got) != 2 || got[0] != "orders" || got[1] != "stock" {
			t.Errorf("%s: Tables = %v", when, got)
		}
	}
	imageStillOld := func(when string) {
		t.Helper()
		if v, _ := s.tp.Get("t:stock", "a"); string(v) != "\x01\x01\x02\x03qty\x011" { // live, v1, {qty: 1}
			t.Errorf("the kv image shows stock/a as %x %s", v, when)
		}
	}
	within(t, "reads of the commit in flight", func() {
		oneState("during the flush")
		imageStillOld("before the flush ended")
	})
	unpark()
	err = <-acked
	if syncErr == nil {
		if err != nil {
			t.Fatal(err)
		}
		oneState("after the flush")
		return
	}
	if !errors.Is(err, syncErr) {
		t.Fatalf("a commit whose flush failed returned %v", err)
	}
	oneState("after the failed flush")
	imageStillOld("after its flush failed")
	if _, err := s.PutE("stock", "c", fields("qty", "1")); !errors.Is(err, syncErr) {
		t.Fatalf("a commit after the failure returned %v; want the store stopped", err)
	}
	oneState("after a refused commit")
}

// checkout is the two-store transaction of the benchmark's /checkout: an
// order row inserted in one store, a stock row updated in the other.
func checkout(mgr *tx.Manager, orders, inventory *Store, key string, lockTimeout time.Duration, inventoryFirst bool) error {
	txn := mgr.Begin(0)
	so, si := orders.Session(txn.ID()), inventory.Session(txn.ID())
	so.LockTimeout, si.LockTimeout = lockTimeout, lockTimeout
	so.Update("orders", "last", fields("order", key))
	si.Update("stock", "sku", fields("last", key))
	var err error
	if inventoryFirst {
		err = errors.Join(txn.Enlist("inventory", si), txn.Enlist("orders", so))
	} else {
		err = errors.Join(txn.Enlist("orders", so), txn.Enlist("inventory", si))
	}
	if err != nil {
		return err
	}
	return txn.Commit()
}

// TestOverlappedPreparesTerminate: two transactions with the same
// two-store write set now prepare both stores at once, so each can win one
// row lock — prepare order no longer rules that out. The lock timeout
// resolves it: both transactions end, a loser ends with ErrLockTimeout
// and nothing applied, and the two stores always agree on who wrote last.
func TestOverlappedPreparesTerminate(t *testing.T) {
	orders, inventory := New("orders", vclock.System), New("inventory", vclock.System)
	mgr := tx.NewManager("s1", vclock.System, nil, nil)

	// Deterministic deadlock first: each transaction already holds the row
	// the other needs. The impatient one aborts, the other commits.
	t1, t2 := mgr.Begin(0), mgr.Begin(0)
	o1, i1 := orders.Session(t1.ID()), inventory.Session(t1.ID())
	o2, i2 := orders.Session(t2.ID()), inventory.Session(t2.ID())
	o1.LockTimeout, i1.LockTimeout = 50*time.Millisecond, 50*time.Millisecond
	if err := errors.Join(o1.Lock("orders", "last"), i2.Lock("stock", "sku")); err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		txn  *tx.Tx
		o, i *Session
		key  string
	}{{t1, o1, i1, "t1"}, {t2, o2, i2, "t2"}} {
		s.o.Update("orders", "last", fields("order", s.key))
		s.i.Update("stock", "sku", fields("last", s.key))
		if err := errors.Join(s.txn.Enlist("orders", s.o), s.txn.Enlist("inventory", s.i)); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 2)
	go func() { errs <- t1.Commit() }()
	if err := t2.Commit(); err != nil {
		t.Fatalf("the patient transaction: %v", err)
	}
	if err := <-errs; !errors.Is(err, ErrLockTimeout) || !errors.Is(err, tx.ErrAborted) {
		t.Fatalf("the impatient transaction: %v, want an abort by ErrLockTimeout", err)
	}
	agree := func(when string) string {
		t.Helper()
		o, _ := orders.Get("orders", "last")
		i, _ := inventory.Get("stock", "sku")
		if o.Fields["order"] != i.Fields["last"] || o.Version != i.Version {
			t.Fatalf("%s: orders says %v (v%d), inventory says %v (v%d): a partial commit",
				when, o.Fields, o.Version, i.Fields, i.Version)
		}
		return o.Fields["order"]
	}
	if last := agree("after the deadlock"); last != "t2" {
		t.Fatalf("last writer %q, want t2", last)
	}

	// Then the race as it happens: pairs of transactions enlisting the
	// stores in opposite orders, started together.
	committed := 1
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		res := make([]error, 2)
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res[k] = checkout(mgr, orders, inventory, "r"+strconv.Itoa(round)+"-"+strconv.Itoa(k), 30*time.Millisecond, k == 1)
			}()
		}
		wg.Wait() // both terminate
		for _, err := range res {
			switch {
			case err == nil:
				committed++
			case !errors.Is(err, ErrLockTimeout):
				t.Fatalf("round %d: %v, want success or ErrLockTimeout", round, err)
			}
		}
		agree("round " + strconv.Itoa(round))
	}
	if o, _ := orders.Get("orders", "last"); o.Version != uint64(committed) {
		t.Fatalf("orders row at v%d after %d commits", o.Version, committed)
	}
	if n := len(orders.InDoubt()) + len(inventory.InDoubt()); n != 0 {
		t.Fatalf("%d votes left behind by aborted transactions", n)
	}
}

// resolver adapts a reopened store to tx.Resource for Manager.Recover: the
// coordinator's decision is to commit whatever the store still holds
// prepared under that id.
type resolver struct{ s *Store }

func (r resolver) Prepare(string) error     { return nil }
func (r resolver) Commit(id string) error   { return r.s.ResolveInDoubt(id, true) }
func (r resolver) Rollback(id string) error { return r.s.ResolveInDoubt(id, false) }

const txSweepCheckouts = 4

// TestTxCrashSweep cuts the power at every mutating syscall of a loop of
// two-store checkouts — both stores' WALs and the coordinator log share
// one CrashFS — then restarts: reopen, Manager.Recover, presumed abort for
// votes without a decision. Every acknowledged checkout must be whole in
// both stores, every unacknowledged one in both or in neither, and each
// store's LSN must count exactly the changes it holds. It runs in both
// CrashFS modes.
func TestTxCrashSweep(t *testing.T) {
	total := runTxSweep(t, kvtest.KeepWritten, -1)
	if total < 12*txSweepCheckouts {
		t.Fatalf("only %d mutating ops for %d checkouts (12 each: 4 kv appends and 2 log appends, written and synced)", total, txSweepCheckouts)
	}
	for _, mode := range kvtest.Modes {
		t.Run(mode.String(), func(t *testing.T) {
			for cut := 0; cut <= total; cut++ {
				runTxSweep(t, mode, cut)
			}
		})
	}
}

func runTxSweep(t *testing.T, mode kvtest.Mode, cut int) int {
	t.Helper()
	dir := t.TempDir()
	budget := cut
	if cut < 0 {
		budget = 1 << 30
	}
	cfs := kvtest.NewCrashFS(kv.OSFS(), budget)
	cfs.SetMode(mode)
	open := func(fsys kv.FS, name string) (*Store, error) {
		w, err := kv.OpenWAL(filepath.Join(dir, name+".db"), kv.Options{SyncEveryCommit: true, FS: fsys})
		if err != nil {
			return nil, err
		}
		s, err := Open(name, vclock.System, w)
		if err != nil {
			return nil, errors.Join(err, w.Close())
		}
		return s, nil
	}
	orderKey := func(i int) string { return "o-" + strconv.Itoa(i) }

	// Power on, run until the cut.
	acked := map[int]bool{}
	attempted := 0
	run := func() error {
		orders, err := open(cfs, "orders")
		if err != nil {
			return err
		}
		defer orders.Close()
		inventory, err := open(cfs, "inventory")
		if err != nil {
			return err
		}
		defer inventory.Close()
		tlog, err := tx.OpenFileLogFS(cfs, filepath.Join(dir, "tlog"), true)
		if err != nil {
			return err
		}
		defer tlog.Close()
		mgr := tx.NewManager("s1", vclock.System, tlog, nil)
		defer mgr.Drain()
		if _, err := inventory.PutE("stock", "sku", fields("sold", "0")); err != nil {
			return err
		}
		for i := 1; i <= txSweepCheckouts; i++ {
			attempted = i
			txn := mgr.Begin(0)
			so, si := orders.Session(txn.ID()), inventory.Session(txn.ID())
			so.Insert("orders", orderKey(i), fields("sku", "sku"))
			si.Update("stock", "sku", fields("sold", strconv.Itoa(i)))
			if err := errors.Join(txn.Enlist("orders", so), txn.Enlist("inventory", si)); err != nil {
				return err
			}
			if err := txn.Commit(); err != nil {
				return err
			}
			acked[i] = true
		}
		return nil
	}
	err := run()
	if cut < 0 {
		if err != nil {
			t.Fatalf("clean run: %v", err)
		}
		return cfs.MutatingOps()
	}

	// Power back on, on the real filesystem.
	orders, err := open(nil, "orders")
	if err != nil {
		t.Fatalf("cut %d: reopening orders: %v", cut, err)
	}
	defer orders.Close()
	inventory, err := open(nil, "inventory")
	if err != nil {
		t.Fatalf("cut %d: reopening inventory: %v", cut, err)
	}
	defer inventory.Close()
	tlog, err := tx.OpenFileLog(filepath.Join(dir, "tlog"), true)
	if err != nil {
		t.Fatalf("cut %d: reopening the log: %v", cut, err)
	}
	defer tlog.Close()
	mgr := tx.NewManager("s1", vclock.System, tlog, nil)
	if _, err := mgr.Recover(map[string]tx.Resource{"orders": resolver{orders}, "inventory": resolver{inventory}}); err != nil {
		t.Fatalf("cut %d: Recover: %v", cut, err)
	}
	// The done records Recover just wrote must read back: nothing is left.
	if again, err := mgr.Recover(nil); err != nil || len(again) != 0 {
		t.Fatalf("cut %d: second Recover = %v, %v; want nothing in doubt", cut, again, err)
	}
	for _, s := range []*Store{orders, inventory} {
		for _, id := range s.InDoubt() { // a vote with no decision: presumed abort
			if err := s.ResolveInDoubt(id, false); err != nil {
				t.Fatalf("cut %d: aborting %s in %s: %v", cut, id, s.Name(), err)
			}
		}
	}

	stock, stocked := inventory.Get("stock", "sku")
	sold := 0
	if stocked {
		sold, _ = strconv.Atoi(stock.Fields["sold"])
	}
	for i := 1; i <= attempted; i++ {
		_, inOrders := orders.Get("orders", orderKey(i))
		inInventory := sold >= i
		switch {
		case acked[i] && !(inOrders && inInventory):
			t.Fatalf("cut %d: acknowledged checkout %d lost (orders %v, inventory %v)", cut, i, inOrders, inInventory)
		case inOrders != inInventory:
			t.Fatalf("cut %d: checkout %d torn (orders %v, inventory %v)", cut, i, inOrders, inInventory)
		}
	}
	// The LSN record travels in the same batch as the rows it counts.
	if got, want := orders.LastLSN(), uint64(orders.Count("orders")); got != want {
		t.Fatalf("cut %d: orders LSN %d with %d changes applied", cut, got, want)
	}
	if got, want := inventory.LastLSN(), stock.Version; got != want { // a missing row reads as version 0
		t.Fatalf("cut %d: inventory LSN %d with %d changes applied", cut, got, want)
	}
	return cfs.MutatingOps()
}

// TestALyingStagedWriteCountFails feeds decodeStagedWrites a short vote
// whose count is negative or far beyond what its bytes hold: it must
// fail, not panic, and size nothing by the count.
func TestALyingStagedWriteCountFails(t *testing.T) {
	for _, n := range []int{-1, 1 << 24, 1 << 40} {
		e := wire.NewEncoder(8)
		e.Int(n)
		e.Byte(byte(writePut))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		writes, err := decodeStagedWrites(e.Bytes())
		runtime.ReadMemStats(&after)
		if err == nil || writes != nil {
			t.Fatalf("count %d: got %d writes, %v; want an error", n, len(writes), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("count %d: allocated %d bytes", n, got)
		}
	}
}
