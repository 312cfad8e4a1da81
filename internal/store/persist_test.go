package store

// Tests for the layered persistence underneath the table semantics: the
// store over each kv backend, version monotonicity across delete/recreate
// and restart, the bounded change ring, in-doubt recovery, and a crash
// chaos sweep through the commit path.

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"wls/internal/kv"
	"wls/internal/kv/kvtest"
	"wls/internal/vclock"
)

// storeBackend opens a kv backend for the store-level tests. open may be
// called repeatedly on the same dir (reopen after Close = restart).
type storeBackend struct {
	name    string
	durable bool
	open    func(t *testing.T, dir string) kv.Store
}

func storeBackends() []storeBackend {
	return []storeBackend{
		{name: "mem", durable: false, open: func(t *testing.T, dir string) kv.Store {
			return kv.NewMem()
		}},
		{name: "wal", durable: true, open: func(t *testing.T, dir string) kv.Store {
			w, err := kv.OpenWAL(filepath.Join(dir, "store.db"), kv.Options{SyncEveryCommit: true})
			if err != nil {
				t.Fatalf("OpenWAL: %v", err)
			}
			return w
		}},
	}
}

func openStore(t *testing.T, b storeBackend, dir string) *Store {
	t.Helper()
	s, err := Open("db", vclock.System, b.open(t, dir))
	if err != nil {
		t.Fatalf("Open(%s): %v", b.name, err)
	}
	return s
}

// Versions must never restart for a key, even across delete-then-recreate:
// an optimistic reader holding the old row would otherwise pass version
// validation against an unrelated newer row. (This used to reset to 1.)
func TestVersionMonotoneAcrossDeleteRecreate(t *testing.T) {
	s := newStore()
	s.Put("acct", "a1", fields("balance", "100")) // v1
	r := s.Put("acct", "a1", fields("balance", "90"))
	if r.Version != 2 {
		t.Fatalf("version = %d, want 2", r.Version)
	}
	s.Delete("acct", "a1")
	r = s.Put("acct", "a1", fields("balance", "0"))
	if r.Version != 3 {
		t.Fatalf("recreated version = %d, want 3 (monotone across delete)", r.Version)
	}

	// The stale-reader scenario the monotone sequence exists for: an
	// optimistic update conditioned on the pre-delete version must
	// conflict, not silently apply to the recreated row.
	sess := s.Session("stale")
	sess.UpdateVersioned("acct", "a1", 2, fields("balance", "1000000"))
	if err := sess.Commit("stale"); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale versioned update: err = %v, want ErrConflict", err)
	}
}

func TestVersionMonotoneAcrossRestart(t *testing.T) {
	for _, b := range storeBackends() {
		if !b.durable {
			continue
		}
		t.Run(b.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, b, dir)
			s.Put("acct", "a1", fields("n", "1")) // v1
			s.Put("acct", "a1", fields("n", "2")) // v2
			s.Delete("acct", "a1")                // tombstone at v2
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			s = openStore(t, b, dir)
			if _, ok := s.Get("acct", "a1"); ok {
				t.Fatal("deleted row resurrected after restart")
			}
			r := s.Put("acct", "a1", fields("n", "3"))
			if r.Version != 3 {
				t.Fatalf("post-restart recreate version = %d, want 3 (tombstone lost?)", r.Version)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

func TestStoreDurableAcrossRestart(t *testing.T) {
	for _, b := range storeBackends() {
		if !b.durable {
			continue
		}
		t.Run(b.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, b, dir)
			s.Put("acct", "a1", fields("balance", "100"))
			s.Put("acct", "a2", fields("balance", "200"))
			s.Put("inv", "sku-1", fields("qty", "7"))
			sess := s.Session("tx-1")
			sess.Update("acct", "a1", fields("balance", "80"))
			sess.Insert("acct", "a3", fields("balance", "5"))
			if err := sess.Commit("tx-1"); err != nil {
				t.Fatalf("Commit: %v", err)
			}
			s.Delete("acct", "a2")
			lsn := s.LastLSN()
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			s = openStore(t, b, dir)
			defer s.Close()
			if got := s.LastLSN(); got != lsn {
				t.Fatalf("LastLSN = %d, want %d", got, lsn)
			}
			r, ok := s.Get("acct", "a1")
			if !ok || r.Fields["balance"] != "80" || r.Version != 2 {
				t.Fatalf("a1 = %+v ok=%v, want balance=80 v2", r, ok)
			}
			if _, ok := s.Get("acct", "a2"); ok {
				t.Fatal("deleted a2 resurrected")
			}
			if r, ok := s.Get("acct", "a3"); !ok || r.Fields["balance"] != "5" {
				t.Fatalf("a3 = %+v ok=%v", r, ok)
			}
			if r, ok := s.Get("inv", "sku-1"); !ok || r.Fields["qty"] != "7" {
				t.Fatalf("sku-1 = %+v ok=%v", r, ok)
			}
			want := []string{"acct", "inv"}
			got := s.Tables()
			if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("Tables = %v, want %v", got, want)
			}
		})
	}
}

func TestChangeRingBoundedAndTrimSentinel(t *testing.T) {
	s := newStore()
	s.SetChangeCap(8)
	s.LastLSN() // the checkpoint the window starts at
	for i := 0; i < 40; i++ {
		s.Put("t", fmt.Sprintf("k%02d", i), fields("n", fmt.Sprint(i)))
	}
	// A sniffer inside the window still reads incrementally.
	changes, err := s.Changes(s.LastLSN() - 3)
	if err != nil {
		t.Fatalf("Changes(in-window): %v", err)
	}
	if len(changes) != 3 {
		t.Fatalf("len(changes) = %d, want 3", len(changes))
	}
	// A sniffer that fell out of the window gets the resync sentinel, not
	// a silently incomplete slice.
	if _, err := s.Changes(0); !errors.Is(err, ErrChangesTrimmed) {
		t.Fatalf("Changes(0): err = %v, want ErrChangesTrimmed", err)
	}
	if _, err := s.Changes(s.LastLSN() - 20); !errors.Is(err, ErrChangesTrimmed) {
		t.Fatalf("Changes(lsn-20): err = %v, want ErrChangesTrimmed", err)
	}
	// The ring itself is exactly the cap: full, the newest change
	// overwrites the oldest in place.
	s.mu.Lock()
	ringLen, live := len(s.changes), s.n
	s.mu.Unlock()
	if ringLen != 8 || live != 8 {
		t.Fatalf("ring of %d entries holding %d with cap 8, want exactly 8", ringLen, live)
	}
	// The exact boundary: the oldest retained LSN is readable, one older
	// is not.
	s.mu.Lock()
	trim := s.trimLSN
	s.mu.Unlock()
	if _, err := s.Changes(trim); err != nil {
		t.Fatalf("Changes(trimLSN): %v", err)
	}
	if trim > 0 {
		if _, err := s.Changes(trim - 1); !errors.Is(err, ErrChangesTrimmed) {
			t.Fatalf("Changes(trimLSN-1): err = %v, want ErrChangesTrimmed", err)
		}
	}
	// Shrinking the cap of a full, wrapped ring keeps the newest changes;
	// growing it again lets the window grow back.
	s.SetChangeCap(3)
	last := s.LastLSN()
	if ch, err := s.Changes(last - 3); err != nil || len(ch) != 3 || ch[0].LSN != last-2 {
		t.Fatalf("after shrinking to 3: Changes(last-3) = %v, %v", ch, err)
	}
	if _, err := s.Changes(last - 4); !errors.Is(err, ErrChangesTrimmed) {
		t.Fatalf("after shrinking to 3: Changes(last-4) err = %v, want ErrChangesTrimmed", err)
	}
	s.SetChangeCap(100)
	for i := 0; i < 20; i++ {
		s.Put("t", "grow", fields("n", fmt.Sprint(i)))
	}
	if ch, err := s.Changes(last - 3); err != nil || len(ch) != 23 || ch[22].LSN != s.LastLSN() {
		t.Fatalf("after growing to 100: Changes = %d changes, %v; want 23", len(ch), err)
	}
}

func TestChangesTrimmedAfterRestart(t *testing.T) {
	b := storeBackends()[1] // wal
	dir := t.TempDir()
	s := openStore(t, b, dir)
	s.Put("t", "k", fields("n", "1"))
	s.Put("t", "k", fields("n", "2"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s = openStore(t, b, dir)
	defer s.Close()
	// The ring does not survive restart; pre-restart cursors must resync.
	if _, err := s.Changes(0); !errors.Is(err, ErrChangesTrimmed) {
		t.Fatalf("Changes(0) after restart: err = %v, want ErrChangesTrimmed", err)
	}
	// A cursor at the current LSN is fine (nothing new).
	if ch, err := s.Changes(s.LastLSN()); err != nil || len(ch) != 0 {
		t.Fatalf("Changes(LastLSN) = %v, %v", ch, err)
	}
	// New commits flow incrementally again.
	cursor := s.LastLSN()
	s.Put("t", "k", fields("n", "3"))
	ch, err := s.Changes(cursor)
	if err != nil || len(ch) != 1 {
		t.Fatalf("Changes(post-restart cursor) = %v, %v", ch, err)
	}
}

func TestInDoubtRecoveryAcrossRestart(t *testing.T) {
	for _, b := range storeBackends() {
		if !b.durable {
			continue
		}
		t.Run(b.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, b, dir)
			s.Put("acct", "a1", fields("balance", "100")) // v1
			s.Put("acct", "a2", fields("balance", "200")) // v1

			// Two prepared-but-unresolved transactions (on disjoint rows —
			// prepare locks are exclusive), then a crash (Close without
			// Commit/Rollback).
			commitMe := s.Session("tx-commit")
			commitMe.Update("acct", "a1", fields("balance", "50"))
			commitMe.Insert("acct", "a9", fields("balance", "1"))
			if err := commitMe.Prepare("tx-commit"); err != nil {
				t.Fatalf("Prepare: %v", err)
			}
			abortMe := s.Session("tx-abort")
			abortMe.Update("acct", "a2", fields("balance", "666"))
			if err := abortMe.Prepare("tx-abort"); err != nil {
				t.Fatalf("Prepare: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			s = openStore(t, b, dir)
			defer s.Close()
			got := s.InDoubt()
			if len(got) != 2 || got[0] != "tx-abort" || got[1] != "tx-commit" {
				t.Fatalf("InDoubt = %v, want [tx-abort tx-commit]", got)
			}
			// Prepared writes are not visible before resolution.
			if r, _ := s.Get("acct", "a1"); r.Fields["balance"] != "100" {
				t.Fatalf("pre-resolution a1 = %+v", r)
			}

			var fired []Change
			s.RegisterTrigger("acct", func(ch Change) { fired = append(fired, ch) })

			if err := s.ResolveInDoubt("tx-abort", false); err != nil {
				t.Fatalf("ResolveInDoubt(abort): %v", err)
			}
			if err := s.ResolveInDoubt("tx-commit", true); err != nil {
				t.Fatalf("ResolveInDoubt(commit): %v", err)
			}
			if n := len(s.InDoubt()); n != 0 {
				t.Fatalf("InDoubt after resolution: %d", n)
			}
			r, _ := s.Get("acct", "a1")
			if r.Fields["balance"] != "50" || r.Version != 2 {
				t.Fatalf("a1 = %+v, want balance=50 v2", r)
			}
			if r, _ := s.Get("acct", "a2"); r.Fields["balance"] != "200" || r.Version != 1 {
				t.Fatalf("a2 = %+v, want the aborted write discarded (balance=200 v1)", r)
			}
			if _, ok := s.Get("acct", "a9"); !ok {
				t.Fatal("a9 insert lost")
			}
			// The replayed commit fired triggers like a live commit would.
			if len(fired) != 2 {
				t.Fatalf("triggers fired %d times, want 2: %+v", len(fired), fired)
			}
			// Resolution is idempotent (coordinator may retry).
			if err := s.ResolveInDoubt("tx-commit", true); err != nil {
				t.Fatalf("ResolveInDoubt retry: %v", err)
			}
			if r, _ := s.Get("acct", "a1"); r.Version != 2 {
				t.Fatalf("retry re-applied the commit: %+v", r)
			}
		})
	}
}

// --- crash chaos through the table layer -----------------------------------

// storeChaosStep drives one deterministic workload action against the
// store, returning an error as soon as the backend fails. Commits write two
// rows in one transaction, so torn commits are detectable as atomicity
// violations.
type storeChaosModel map[string]map[string]string

func (m storeChaosModel) clone() storeChaosModel {
	out := make(storeChaosModel, len(m))
	for t, rows := range m {
		c := make(map[string]string, len(rows))
		for k, v := range rows {
			c[k] = v
		}
		out[t] = c
	}
	return out
}

func (m storeChaosModel) set(table, key, val string) {
	if m[table] == nil {
		m[table] = make(map[string]string)
	}
	m[table][key] = val
}

func (m storeChaosModel) del(table, key string) {
	delete(m[table], key)
}

// applyChaosAction mutates the model with action i's effect. It mirrors
// runChaosAction exactly — keep the two in sync. Every action is ONE
// commit, so "acked or acked+inflight" is the full space of legal
// post-crash states.
func applyChaosAction(m storeChaosModel, i int) {
	k := fmt.Sprintf("k%02d", i%5)
	v := fmt.Sprint(i)
	switch {
	case i%7 == 3:
		m.del("a", k)
	case i%3 == 0:
		m.set("a", k, v)
		m.set("b", k, v)
	default:
		m.set("a", k, v)
	}
}

// runChaosAction performs action i against the store.
func runChaosAction(s *Store, i int) error {
	k := fmt.Sprintf("k%02d", i%5)
	v := fmt.Sprint(i)
	switch {
	case i%7 == 3:
		_, err := s.DeleteE("a", k)
		return err
	case i%3 == 0:
		// Transactional: two tables in one commit (atomicity probe — a
		// recovered state holding one table's row without the other fails
		// the sweep).
		txID := fmt.Sprintf("tx-%d", i)
		sess := s.Session(txID)
		sess.Update("a", k, fields("v", v))
		sess.Update("b", k, fields("v", v))
		return sess.Commit(txID)
	default:
		_, err := s.PutE("a", k, fields("v", v))
		return err
	}
}

const storeChaosActions = 12

func dumpStore(s *Store) storeChaosModel {
	out := make(storeChaosModel)
	for _, table := range []string{"a", "b"} {
		for _, r := range s.Scan(table, nil) {
			out.set(table, r.Key, r.Fields["v"])
		}
	}
	return out
}

func modelsEqual(a, b storeChaosModel) bool {
	for _, tbl := range []string{"a", "b"} {
		if len(a[tbl]) != len(b[tbl]) {
			return false
		}
		for k, v := range a[tbl] {
			if b[tbl][k] != v {
				return false
			}
		}
	}
	return true
}

// TestStoreCrashChaosSweep cuts power at every mutating filesystem
// operation of a mixed autocommit/transactional workload and verifies that
// the recovered store holds exactly the acked prefix — or the acked prefix
// plus the one in-flight action (a commit whose batch hit disk before the
// ack errored). A torn transaction (table a updated, table b not) is an
// atomicity violation and fails the sweep. It runs in both CrashFS modes.
func TestStoreCrashChaosSweep(t *testing.T) {
	t.Run("wal", func(t *testing.T) {
		// First, a clean run to count the crash windows.
		total := runStoreChaos(t, kvtest.KeepWritten, -1)
		if total < storeChaosActions {
			t.Fatalf("only %d mutating ops for %d actions?", total, storeChaosActions)
		}
		for _, mode := range kvtest.Modes {
			t.Run(mode.String(), func(t *testing.T) {
				for step := 0; step <= total; step++ {
					runStoreChaos(t, mode, step)
				}
			})
		}
	})
}

// runStoreChaos runs the workload over a WAL with a crash budget
// (negative = never crash), then reopens on the real filesystem and checks
// the invariant. It returns the number of mutating ops the run performed.
func runStoreChaos(t *testing.T, mode kvtest.Mode, crashAt int) int {
	t.Helper()
	dir := t.TempDir()
	budget := crashAt
	if crashAt < 0 {
		budget = 1 << 30
	}
	cfs := kvtest.NewCrashFS(kv.OSFS(), budget)
	cfs.SetTear(1, 2)
	cfs.SetMode(mode)

	path := filepath.Join(dir, "store.db")
	openKV := func(o kv.Options) (kv.Store, error) { return kv.OpenWAL(path, o) }

	acked := make(storeChaosModel)
	inflight := -1
	kvs, err := openKV(kv.Options{SyncEveryCommit: true, FS: cfs})
	if err == nil {
		var s *Store
		s, err = Open("db", vclock.System, kvs)
		if err == nil {
			for i := 0; i < storeChaosActions; i++ {
				inflight = i
				if err = runChaosAction(s, i); err != nil {
					break
				}
				applyChaosAction(acked, i)
				inflight = -1
			}
			_ = s.Close()
		} else {
			_ = kvs.Close()
		}
	}
	if crashAt < 0 {
		if err != nil {
			t.Fatalf("clean run failed: %v", err)
		}
		return cfs.MutatingOps()
	}

	// Power back on: reopen on the real filesystem.
	kvs, err = openKV(kv.Options{SyncEveryCommit: true})
	if err != nil {
		t.Fatalf("crashAt=%d: recovery open failed: %v", crashAt, err)
	}
	s, err := Open("db", vclock.System, kvs)
	if err != nil {
		t.Fatalf("crashAt=%d: recovery Open failed: %v", crashAt, err)
	}
	defer s.Close()

	got := dumpStore(s)
	ok := modelsEqual(got, acked)
	if !ok && inflight >= 0 {
		withInflight := acked.clone()
		applyChaosAction(withInflight, inflight)
		ok = modelsEqual(got, withInflight)
	}
	if !ok {
		t.Fatalf("crashAt=%d: recovered state %v is neither acked %v nor acked+inflight(%d)",
			crashAt, got, acked, inflight)
	}
	// The recovered store must accept writes.
	if _, err := s.PutE("a", "post", fields("v", "post")); err != nil {
		t.Fatalf("crashAt=%d: recovered store rejects writes: %v", crashAt, err)
	}
	return cfs.MutatingOps()
}
