package tuple_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"wls/internal/kv"
	"wls/internal/kv/kvtest"
	"wls/internal/tuple"
	"wls/internal/tx"
	"wls/internal/vclock"
)

// kvCase gives the tuple suite open/reopen over each kv backend.
type kvCase struct {
	name    string
	durable bool
	open    func(t *testing.T, dir string) kv.Store
}

func kvCases() []kvCase {
	return []kvCase{
		{"mem", false, func(t *testing.T, dir string) kv.Store { return kv.NewMem() }},
		{"wal", true, func(t *testing.T, dir string) kv.Store {
			s, err := kv.OpenWAL(filepath.Join(dir, "t.db"), kv.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
}

func forEachKV(t *testing.T, fn func(t *testing.T, kc kvCase)) {
	for _, kc := range kvCases() {
		kc := kc
		t.Run(kc.name, func(t *testing.T) { fn(t, kc) })
	}
}

func open(t *testing.T, kc kvCase, dir string) *tuple.Store {
	t.Helper()
	st, err := tuple.New(kc.open(t, dir))
	if err != nil {
		t.Fatalf("tuple.New: %v", err)
	}
	return st
}

func TestSpacesAreIsolated(t *testing.T) {
	forEachKV(t, func(t *testing.T, kc kvCase) {
		st := open(t, kc, t.TempDir())
		defer st.Close()
		if err := st.Put("a", "k", []byte("va")); err != nil {
			t.Fatal(err)
		}
		if err := st.Put("ab", "k", []byte("vab")); err != nil {
			t.Fatal(err)
		}
		if v, _ := st.Get("a", "k"); string(v) != "va" {
			t.Fatalf("Get(a,k) = %q", v)
		}
		// The space boundary is exact: "a" does not see "ab"'s keys even
		// though "ab" is a string-prefix of neither-space's encoding.
		n := 0
		st.Scan("a", "", func(_, _ string) bool { n++; return true })
		if n != 1 {
			t.Fatalf("Scan(a) crossed into space ab: %d keys", n)
		}
		if got := st.Count("a", ""); got != 1 {
			t.Fatalf("Count(a) = %d", got)
		}
		if got := st.Spaces(); !reflect.DeepEqual(got, []string{"a", "ab"}) {
			t.Fatalf("Spaces() = %v", got)
		}
	})
}

func TestApplyCrossSpaceAtomicVisible(t *testing.T) {
	forEachKV(t, func(t *testing.T, kc kvCase) {
		st := open(t, kc, t.TempDir())
		defer st.Close()
		err := st.Apply([]kv.Op{
			{Kind: kv.OpPut, Space: "queue", Key: "m1", Value: "msg"},
			{Kind: kv.OpPut, Space: "conv", Key: "c1", Value: "state"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Get("queue", "m1"); !ok {
			t.Fatal("queue write lost")
		}
		if _, ok := st.Get("conv", "c1"); !ok {
			t.Fatal("conv write lost")
		}
	})
}

func TestSessionPrepareCommit(t *testing.T) {
	forEachKV(t, func(t *testing.T, kc kvCase) {
		st := open(t, kc, t.TempDir())
		defer st.Close()
		sess := st.Session()
		sess.Put("s", "k1", []byte("v1"))
		sess.Delete("s", "k0")
		if err := st.Put("s", "k0", []byte("old")); err != nil {
			t.Fatal(err)
		}
		if err := sess.Prepare("tx1"); err != nil {
			t.Fatal(err)
		}
		// Prepared but uncommitted: no data visible yet.
		if _, ok := st.Get("s", "k1"); ok {
			t.Fatal("staged write visible before commit")
		}
		if got := st.InDoubt(); !reflect.DeepEqual(got, []string{"tx1"}) {
			t.Fatalf("InDoubt = %v", got)
		}
		if err := sess.Commit("tx1"); err != nil {
			t.Fatal(err)
		}
		if v, ok := st.Get("s", "k1"); !ok || string(v) != "v1" {
			t.Fatalf("committed write: %q %v", v, ok)
		}
		if _, ok := st.Get("s", "k0"); ok {
			t.Fatal("staged delete not applied")
		}
		if got := st.InDoubt(); len(got) != 0 {
			t.Fatalf("InDoubt after commit = %v", got)
		}
		// Idempotent re-commit (recovery path).
		if err := sess.Commit("tx1"); err != nil {
			t.Fatalf("re-commit: %v", err)
		}
	})
}

func TestSessionRollback(t *testing.T) {
	forEachKV(t, func(t *testing.T, kc kvCase) {
		st := open(t, kc, t.TempDir())
		defer st.Close()
		sess := st.Session()
		sess.Put("s", "k", []byte("v"))
		if err := sess.Prepare("tx1"); err != nil {
			t.Fatal(err)
		}
		if err := sess.Rollback("tx1"); err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Get("s", "k"); ok {
			t.Fatal("rolled-back write visible")
		}
		if got := st.InDoubt(); len(got) != 0 {
			t.Fatalf("InDoubt after rollback = %v", got)
		}
	})
}

func TestInDoubtSurvivesRestart(t *testing.T) {
	forEachKV(t, func(t *testing.T, kc kvCase) {
		if !kc.durable {
			t.Skip("in-memory backend")
		}
		dir := t.TempDir()
		st := open(t, kc, dir)
		sess := st.Session()
		sess.Put("s", "k", []byte("v"))
		if err := sess.Prepare("tx-indoubt"); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		// Restart: the prepared transaction must come back in doubt, and
		// resolving it must apply the staged ops.
		st2 := open(t, kc, dir)
		if got := st2.InDoubt(); !reflect.DeepEqual(got, []string{"tx-indoubt"}) {
			t.Fatalf("InDoubt after restart = %v", got)
		}
		if _, ok := st2.Get("s", "k"); ok {
			t.Fatal("in-doubt write visible before resolution")
		}
		if err := st2.ResolveInDoubt("tx-indoubt", true); err != nil {
			t.Fatal(err)
		}
		if v, ok := st2.Get("s", "k"); !ok || string(v) != "v" {
			t.Fatalf("resolved commit lost: %q %v", v, ok)
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
		// And the resolution itself is durable.
		st3 := open(t, kc, dir)
		defer st3.Close()
		if got := st3.InDoubt(); len(got) != 0 {
			t.Fatalf("InDoubt after resolved restart = %v", got)
		}
		if _, ok := st3.Get("s", "k"); !ok {
			t.Fatal("resolution not durable")
		}
	})
}

func TestInDoubtAbortDiscards(t *testing.T) {
	forEachKV(t, func(t *testing.T, kc kvCase) {
		if !kc.durable {
			t.Skip("in-memory backend")
		}
		dir := t.TempDir()
		st := open(t, kc, dir)
		sess := st.Session()
		sess.Put("s", "k", []byte("v"))
		if err := sess.Prepare("tx-abort"); err != nil {
			t.Fatal(err)
		}
		st.Close()
		st2 := open(t, kc, dir)
		if err := st2.ResolveInDoubt("tx-abort", false); err != nil {
			t.Fatal(err)
		}
		st2.Close()
		st3 := open(t, kc, dir)
		defer st3.Close()
		if _, ok := st3.Get("s", "k"); ok {
			t.Fatal("aborted write visible")
		}
		if got := st3.InDoubt(); len(got) != 0 {
			t.Fatalf("InDoubt = %v", got)
		}
	})
}

func TestWorksAsTxResource(t *testing.T) {
	forEachKV(t, func(t *testing.T, kc kvCase) {
		st := open(t, kc, t.TempDir())
		defer st.Close()
		mgr := tx.NewManager("s1", vclock.NewVirtualAtZero(), nil, nil)
		txn := mgr.Begin(0)
		sess := st.Session()
		sess.Put("jms.queue.orders", "m1", []byte("order"))
		sess.Put("conversations", "c1", []byte("state"))
		txn.Enlist("tuple", sess)
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		if mgr.Metrics().Counter("tx.1pc").Value() != 1 {
			t.Fatal("co-located commit should be 1PC")
		}
		if _, ok := st.Get("jms.queue.orders", "m1"); !ok {
			t.Fatal("message lost")
		}
	})
}

func TestOnePhaseCommitWithoutPrepare(t *testing.T) {
	forEachKV(t, func(t *testing.T, kc kvCase) {
		st := open(t, kc, t.TempDir())
		defer st.Close()
		sess := st.Session()
		sess.Put("s", "k", []byte("v"))
		if err := sess.Commit("t1"); err != nil {
			t.Fatal(err)
		}
		if v, _ := st.Get("s", "k"); string(v) != "v" {
			t.Fatal("1PC commit lost")
		}
		if got := st.InDoubt(); len(got) != 0 {
			t.Fatalf("InDoubt after 1PC = %v", got)
		}
	})
}

func TestCommittedTxSurvivesRestart(t *testing.T) {
	forEachKV(t, func(t *testing.T, kc kvCase) {
		if !kc.durable {
			t.Skip("in-memory backend")
		}
		dir := t.TempDir()
		st := open(t, kc, dir)
		sess := st.Session()
		sess.Put("a", "k", []byte("1"))
		sess.Put("b", "k", []byte("2"))
		if err := sess.Prepare("t1"); err != nil {
			t.Fatal(err)
		}
		if err := sess.Commit("t1"); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st2 := open(t, kc, dir)
		defer st2.Close()
		if v, _ := st2.Get("a", "k"); string(v) != "1" {
			t.Fatal("space a lost")
		}
		if v, _ := st2.Get("b", "k"); string(v) != "2" {
			t.Fatal("space b lost")
		}
		if got := st2.InDoubt(); len(got) != 0 {
			t.Fatalf("committed tx in doubt: %v", got)
		}
	})
}

func TestConcurrentAutocommitWriters(t *testing.T) {
	forEachKV(t, func(t *testing.T, kc kvCase) {
		st := open(t, kc, t.TempDir())
		defer st.Close()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 50; j++ {
					if err := st.Put("s", fmt.Sprintf("k%d-%d", i, j), []byte("v")); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if got := st.Count("s", ""); got != 400 {
			t.Fatalf("Count = %d, want 400", got)
		}
	})
}

// TestPropertyReplayEquivalence: any sequence of puts and deletes reads
// back the same after a reopen.
func TestPropertyReplayEquivalence(t *testing.T) {
	forEachKV(t, func(t *testing.T, kc kvCase) {
		if !kc.durable {
			t.Skip("in-memory backend")
		}
		type step struct {
			Key    uint8
			Value  []byte
			Delete bool
		}
		f := func(steps []step) bool {
			dir := t.TempDir()
			st := open(t, kc, dir)
			model := map[string][]byte{}
			for _, s := range steps {
				key := fmt.Sprintf("k%d", s.Key%16)
				var err error
				if s.Delete {
					err = st.Delete("s", key)
					delete(model, key)
				} else {
					err = st.Put("s", key, s.Value)
					model[key] = append([]byte(nil), s.Value...)
				}
				if err != nil {
					return false
				}
			}
			if st.Close() != nil {
				return false
			}
			st2 := open(t, kc, dir)
			defer st2.Close()
			if st2.Count("s", "") != len(model) {
				return false
			}
			for k, v := range model {
				got, ok := st2.Get("s", k)
				if !ok || !bytes.Equal(got, v) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCommitCrashAtomicity sweeps crash points through the commit of a
// prepared transaction: recovery must find it either fully applied (stage
// record gone) or still pending (no data visible) — never in between.
func TestCommitCrashAtomicity(t *testing.T) {
	cases := []struct {
		name string
		open func(dir string, fs kv.FS) (kv.Store, error)
	}{
		{"wal", func(dir string, fs kv.FS) (kv.Store, error) {
			return kv.OpenWAL(filepath.Join(dir, "t.db"), kv.Options{SyncEveryCommit: true, FS: fs, CheckpointBytes: -1})
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for step := 0; step < 12; step++ {
				dir := t.TempDir()
				// Prepare durably on the real filesystem.
				kvs, err := c.open(dir, nil)
				if err != nil {
					t.Fatal(err)
				}
				st, err := tuple.New(kvs)
				if err != nil {
					t.Fatal(err)
				}
				sess := st.Session()
				for i := 0; i < 3; i++ {
					sess.Put("s", fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
				}
				if err := sess.Prepare("txc"); err != nil {
					t.Fatal(err)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				// Reopen behind a crashing filesystem and drive the commit
				// into the crash point.
				cfs := kvtest.NewCrashFS(nil, step)
				kvs2, err := c.open(dir, cfs)
				var committed bool
				if err == nil {
					st2, terr := tuple.New(kvs2)
					if terr != nil {
						t.Fatalf("step %d: tuple.New: %v", step, terr)
					}
					committed = st2.ResolveInDoubt("txc", true) == nil
					st2.Close()
				}
				if !cfs.Crashed() {
					// Budget exceeded the whole commit: nothing left to test
					// at larger steps.
					if !committed {
						t.Fatalf("step %d: no crash but commit failed", step)
					}
					break
				}
				kvs3, err := c.open(dir, nil)
				if err != nil {
					t.Fatalf("step %d: reopen: %v", step, err)
				}
				st3, err := tuple.New(kvs3)
				if err != nil {
					t.Fatalf("step %d: tuple recovery: %v", step, err)
				}
				pending := len(st3.InDoubt()) == 1
				applied := st3.Count("s", "") == 3
				if pending && applied {
					t.Fatalf("step %d: transaction both pending and applied", step)
				}
				if !pending && !applied {
					t.Fatalf("step %d: transaction lost: neither pending nor applied", step)
				}
				if !pending && st3.Count("s", "") != 3 {
					t.Fatalf("step %d: partial commit: %d of 3 keys", step, st3.Count("s", ""))
				}
				st3.Close()
			}
		})
	}
}
