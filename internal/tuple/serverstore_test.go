package tuple_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"wls/internal/kv"
	"wls/internal/tuple"
	"wls/internal/tx"
	"wls/internal/vclock"
)

// The TestServerStore* tests drive the store exactly as wls.go opens a
// server's §5.1 file store — tuple over kv.OpenWAL with a sync on every
// commit — and carry over the checks the deleted region facade made on
// messages, conversations and in-doubt transactions sharing one file.

func openServerStore(t *testing.T, path string) *tuple.Store {
	t.Helper()
	w, err := kv.OpenWAL(path, kv.Options{SyncEveryCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := tuple.New(w)
	if err != nil {
		w.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func serverStorePath(t *testing.T) string {
	return filepath.Join(t.TempDir(), "s1.store")
}

func TestServerStorePutGetDelete(t *testing.T) {
	st := openServerStore(t, serverStorePath(t))
	if err := st.Put("r", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok := st.Get("r", "k")
	if !ok || string(v) != "v" {
		t.Fatalf("get = %q ok=%v", v, ok)
	}
	if err := st.Delete("r", "k"); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("r", "k"); ok {
		t.Fatal("key survived delete")
	}
}

func TestServerStoreGetReturnsCopy(t *testing.T) {
	st := openServerStore(t, serverStorePath(t))
	if err := st.Put("r", "k", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	v, _ := st.Get("r", "k")
	v[0] = 'X'
	if v2, _ := st.Get("r", "k"); string(v2) != "abc" {
		t.Fatal("Get aliases internal buffer")
	}
}

func TestServerStoreSpacesAreIsolated(t *testing.T) {
	st := openServerStore(t, serverStorePath(t))
	st.Put("a", "k", []byte("1"))
	st.Put("b", "k", []byte("2"))
	va, _ := st.Get("a", "k")
	vb, _ := st.Get("b", "k")
	if string(va) != "1" || string(vb) != "2" {
		t.Fatal("spaces collided")
	}
	if got := st.Spaces(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Spaces() = %v", got)
	}
}

func TestServerStoreScanSortedAndCount(t *testing.T) {
	st := openServerStore(t, serverStorePath(t))
	for _, k := range []string{"c", "a", "b"} {
		st.Put("r", k, []byte("x"))
	}
	var keys []string
	st.Scan("r", "", func(k, _ string) bool { keys = append(keys, k); return true })
	if !reflect.DeepEqual(keys, []string{"a", "b", "c"}) {
		t.Fatalf("keys = %v", keys)
	}
	if got := st.Count("r", ""); got != 3 {
		t.Fatalf("count = %d", got)
	}
}

func TestServerStoreReplayAfterReopen(t *testing.T) {
	path := serverStorePath(t)
	st := openServerStore(t, path)
	st.Put("msgs", "m1", []byte("hello"))
	st.Put("msgs", "m2", []byte("world"))
	st.Delete("msgs", "m1")
	st.Put("conv", "c1", []byte("state"))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openServerStore(t, path)
	if _, ok := st2.Get("msgs", "m1"); ok {
		t.Fatal("deleted key resurrected")
	}
	if v, _ := st2.Get("msgs", "m2"); string(v) != "world" {
		t.Fatalf("m2 = %q", v)
	}
	if c, _ := st2.Get("conv", "c1"); string(c) != "state" {
		t.Fatal("conv space lost")
	}
}

func TestServerStoreTransactionalCommit(t *testing.T) {
	st := openServerStore(t, serverStorePath(t))
	sess := st.Session()
	sess.Put("msgs", "m1", []byte("in-flight"))
	sess.Put("conv", "c1", []byte("step-2"))
	sess.Delete("msgs", "m0")
	if _, ok := st.Get("msgs", "m1"); ok {
		t.Fatal("staged write visible")
	}
	if err := sess.Prepare("t1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("msgs", "m1"); ok {
		t.Fatal("prepared write visible before commit")
	}
	if err := sess.Commit("t1"); err != nil {
		t.Fatal(err)
	}
	if v, _ := st.Get("conv", "c1"); string(v) != "step-2" {
		t.Fatal("committed write missing")
	}
}

func TestServerStoreTransactionalRollback(t *testing.T) {
	st := openServerStore(t, serverStorePath(t))
	if err := st.Put("r", "k", []byte("orig")); err != nil {
		t.Fatal(err)
	}
	sess := st.Session()
	sess.Put("r", "k", []byte("new"))
	if err := sess.Prepare("t1"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Rollback("t1"); err != nil {
		t.Fatal(err)
	}
	if v, _ := st.Get("r", "k"); string(v) != "orig" {
		t.Fatalf("rollback leaked: %q", v)
	}
	if got := st.InDoubt(); len(got) != 0 {
		t.Fatalf("aborted tx still in doubt: %v", got)
	}
}

func TestServerStoreInDoubtSurvivesRestart(t *testing.T) {
	path := serverStorePath(t)
	st := openServerStore(t, path)
	sess := st.Session()
	sess.Put("msgs", "m1", []byte("v"))
	if err := sess.Prepare("tx-indoubt"); err != nil {
		t.Fatal(err)
	}
	st.Close() // crash between prepare and commit

	st2 := openServerStore(t, path)
	if got := st2.InDoubt(); len(got) != 1 || got[0] != "tx-indoubt" {
		t.Fatalf("in doubt = %v", got)
	}
	if _, ok := st2.Get("msgs", "m1"); ok {
		t.Fatal("prepared write visible before resolution")
	}
	if err := st2.ResolveInDoubt("tx-indoubt", true); err != nil {
		t.Fatal(err)
	}
	if v, _ := st2.Get("msgs", "m1"); string(v) != "v" {
		t.Fatal("resolved commit not applied")
	}
	if got := st2.InDoubt(); len(got) != 0 {
		t.Fatalf("still in doubt after resolution: %v", got)
	}
}

func TestServerStoreInDoubtAbortOnRestart(t *testing.T) {
	path := serverStorePath(t)
	st := openServerStore(t, path)
	sess := st.Session()
	sess.Put("r", "k", []byte("v"))
	if err := sess.Prepare("tx-1"); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := openServerStore(t, path)
	if err := st2.ResolveInDoubt("tx-1", false); err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Get("r", "k"); ok {
		t.Fatal("aborted write applied")
	}
	// The abort decision must itself be durable.
	st2.Close()
	st3 := openServerStore(t, path)
	if got := st3.InDoubt(); len(got) != 0 {
		t.Fatalf("abort decision lost on restart: %v", got)
	}
}

func TestServerStoreWorksAsTxResource(t *testing.T) {
	// The whole point of §5.1: one store backing both the message store
	// and conversation state joins a transaction as ONE resource, so the
	// manager uses the one-phase path.
	st := openServerStore(t, serverStorePath(t))
	mgr := tx.NewManager("s1", vclock.NewVirtualAtZero(), nil, nil)
	txn := mgr.Begin(0)
	sess := st.Session()
	sess.Put("jms.queue.orders", "m1", []byte("order"))
	sess.Put("conversations", "c1", []byte("state"))
	txn.Enlist("files", sess)
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if mgr.Metrics().Counter("tx.1pc").Value() != 1 {
		t.Fatal("co-located commit should be 1PC")
	}
	if _, ok := st.Get("jms.queue.orders", "m1"); !ok {
		t.Fatal("message lost")
	}
	if _, ok := st.Get("conversations", "c1"); !ok {
		t.Fatal("conversation state lost")
	}
}

func TestServerStoreClosedRejectsWrites(t *testing.T) {
	st := openServerStore(t, serverStorePath(t))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("r", "k", []byte("v")); err != kv.ErrClosed {
		t.Fatalf("want kv.ErrClosed, got %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
