package jms

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"wls/internal/kv"
	"wls/internal/kv/kvtest"
	"wls/internal/rmi"
	"wls/internal/tuple"
	"wls/internal/wire"
)

// openStoreOn opens a broker store (tuple over a synced WAL, as a server
// opens its own) in dir on fs; nil fs is the operating system.
func openStoreOn(dir string, fs kv.FS) (*tuple.Store, error) {
	w, err := kv.OpenWAL(filepath.Join(dir, "jms.store"), kv.Options{SyncEveryCommit: true, FS: fs})
	if err != nil {
		return nil, err
	}
	st, err := tuple.New(w)
	if err != nil {
		return nil, errors.Join(err, w.Close())
	}
	return st, nil
}

// deliverArgs encodes one "deliver" call for queue dst.
func deliverArgs(m Message) []byte {
	e := wire.NewEncoder(64)
	e.String("dst")
	e.String(m.ID)
	e.String(m.Key)
	e.Bytes2(m.Body)
	return e.Bytes()
}

// TestDeliverFailsWhenDedupMarkNotWritten: a SAF delivery whose dedup mark
// the store refuses is reported to the sender as failed and is not
// remembered, so the redelivery is tried again — it used to be remembered
// in memory only, and the redelivery was then dropped as a duplicate and
// acknowledged: the message was lost. White-box because the receiving end
// is the service's method table, not an exported call.
func TestDeliverFailsWhenDedupMarkNotWritten(t *testing.T) {
	st, err := openStoreOn(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker("s1", st, nil)
	b.Queue("dst") // opened while the store still answers
	svc := b.RMIService()
	if err := st.Close(); err != nil { // every write fails from here on
		t.Fatal(err)
	}

	args := deliverArgs(Message{ID: "fixed-id", Body: []byte("once")})
	for attempt := 1; attempt <= 3; attempt++ {
		_, err := svc.Methods["deliver"].Handler(context.Background(), &rmi.Call{Args: args})
		if err == nil {
			t.Fatalf("attempt %d: acknowledged although the dedup mark could not be written", attempt)
		}
	}
	if n := b.Metrics().Counter("jms.dedup_drops").Value(); n != 0 {
		t.Fatalf("%d redeliveries dropped as duplicates of a delivery that never happened", n)
	}
	if n := b.Queue("dst").Len(); n != 0 {
		t.Fatalf("queue holds %d messages, want 0", n)
	}
}

// TestDeliverCrashAtomicity cuts power at every mutating filesystem call
// of a run of SAF deliveries. After recovery each message has its dedup
// mark and its queue record, or neither: a mark without the message would
// turn the sender's redelivery into a dropped "duplicate" and lose it.
// Every acknowledged delivery has both.
func TestDeliverCrashAtomicity(t *testing.T) {
	const n = 4
	id := func(i int) string { return fmt.Sprintf("s0/out/m%d", i) }
	// deliverAll delivers the n messages in order and reports how many
	// were acknowledged before the first failure.
	deliverAll := func(st *tuple.Store) int {
		deliver := NewBroker("s1", st, nil).RMIService().Methods["deliver"].Handler
		for i := 0; i < n; i++ {
			args := deliverArgs(Message{ID: id(i), Body: []byte("payload")})
			if _, err := deliver(context.Background(), &rmi.Call{Args: args}); err != nil {
				return i
			}
		}
		return n
	}

	rec := kvtest.NewCrashFS(nil, -1)
	st, err := openStoreOn(t.TempDir(), rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := deliverAll(st); got != n {
		t.Fatalf("clean run acknowledged %d of %d", got, n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	total := rec.MutatingOps()

	for step := 0; step < total; step++ {
		dir := t.TempDir()
		cfs := kvtest.NewCrashFS(nil, step)
		acked := 0
		if st, err := openStoreOn(dir, cfs); err == nil {
			acked = deliverAll(st)
			_ = st.Close() // post-crash close errors are expected
		}
		if !cfs.Crashed() {
			t.Fatalf("step %d of %d: the run finished without crashing", step, total)
		}
		st, err := openStoreOn(dir, nil)
		if err != nil {
			t.Fatalf("step %d: reopen: %v", step, err)
		}
		for i := 0; i < n; i++ {
			_, marked := st.Get(dedupSpace, id(i))
			_, queued := st.Get("jms.queue.dst", id(i))
			if marked != queued {
				t.Fatalf("step %d: %s has dedup mark %v but queue record %v\nops:\n  %v", step, id(i), marked, queued, cfs.Ops())
			}
			if i < acked && !marked {
				t.Fatalf("step %d: acknowledged %s lost", step, id(i))
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
