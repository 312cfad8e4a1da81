package jms_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wls/internal/jms"
	"wls/internal/kv"
	"wls/internal/simtest"
	"wls/internal/tuple"
	"wls/internal/tx"
	"wls/internal/vclock"
)

func memBroker() *jms.Broker {
	return jms.NewBroker("s1", nil, nil)
}

// openStore opens a broker store the way a server lays it out: tuple
// spaces over a WAL at path. It is closed when the test ends.
func openStore(t *testing.T, path string) *tuple.Store {
	st, _ := openWAL(t, path)
	return st
}

// openWAL is openStore that also hands back the WAL under the store.
func openWAL(t *testing.T, path string) (*tuple.Store, *kv.WAL) {
	t.Helper()
	w, err := kv.OpenWAL(path, kv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := tuple.New(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, w
}

func fileBroker(t *testing.T) (*jms.Broker, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "jms.store")
	return jms.NewBroker("s1", openStore(t, path), nil), path
}

func TestSendReceiveAckFIFO(t *testing.T) {
	b := memBroker()
	q := b.Queue("orders")
	for i := 0; i < 5; i++ {
		if _, err := q.Send(jms.Message{Body: []byte(fmt.Sprintf("m%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		m, err := q.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if string(m.Body) != fmt.Sprintf("m%d", i) {
			t.Fatalf("out of order: %q at %d", m.Body, i)
		}
		if err := q.Ack(m.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Receive(); !errors.Is(err, jms.ErrEmpty) {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestNackRedelivers(t *testing.T) {
	b := memBroker()
	q := b.Queue("q")
	q.Send(jms.Message{Body: []byte("x")})
	m, _ := q.Receive()
	q.Nack(m.ID)
	m2, err := q.Receive()
	if err != nil || m2.ID != m.ID {
		t.Fatalf("nack did not redeliver: %v %v", m2, err)
	}
}

func TestAckUnknownErrors(t *testing.T) {
	b := memBroker()
	if err := b.Queue("q").Ack("nope"); err == nil {
		t.Fatal("want error")
	}
}

func TestPersistentBacklogSurvivesRestart(t *testing.T) {
	b, path := fileBroker(t)
	q := b.Queue("orders")
	q.Send(jms.Message{Body: []byte("m1")})
	q.Send(jms.Message{Body: []byte("m2")})
	m, _ := q.Receive()
	q.Ack(m.ID) // m1 consumed
	m2, _ := q.Receive()
	_ = m2 // m2 in flight, never acked — must come back after crash

	// "Crash": reopen the store with a fresh broker.
	b2 := jms.NewBroker("s1", openStore(t, path), nil)
	q2 := b2.Queue("orders")
	if q2.Len() != 1 {
		t.Fatalf("recovered backlog = %d, want 1", q2.Len())
	}
	got, err := q2.Receive()
	if err != nil || string(got.Body) != "m2" {
		t.Fatalf("recovered %q err=%v", got.Body, err)
	}
}

func TestTransactionalSendInvisibleUntilCommit(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	b, _ := fileBroker(t)
	q := b.Queue("q")
	mgr := tx.NewManager("s1", clk, nil, nil)

	txn := mgr.Begin(0)
	if _, err := q.SendTx(txn, jms.Message{Body: []byte("staged")}); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 0 {
		t.Fatal("staged message visible before commit")
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 1 {
		t.Fatal("committed message missing")
	}
}

func TestTransactionalSendRollback(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	b, _ := fileBroker(t)
	q := b.Queue("q")
	mgr := tx.NewManager("s1", clk, nil, nil)
	txn := mgr.Begin(0)
	q.SendTx(txn, jms.Message{Body: []byte("x")})
	txn.Rollback()
	if q.Len() != 0 {
		t.Fatal("rolled-back send leaked")
	}
}

func TestTransactionalReceiveRollbackRedelivers(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	b := memBroker()
	q := b.Queue("q")
	q.Send(jms.Message{Body: []byte("x")})
	mgr := tx.NewManager("s1", clk, nil, nil)

	txn := mgr.Begin(0)
	m, err := q.ReceiveTx(txn)
	if err != nil {
		t.Fatal(err)
	}
	txn.Rollback()
	m2, err := q.Receive()
	if err != nil || m2.ID != m.ID {
		t.Fatal("rolled-back receive not redelivered")
	}
}

func TestConsumeAndUpdateSameFilestoreIs1PC(t *testing.T) {
	// §5.1: consuming a message and updating conversational state in the
	// same store needs no 2PC — both ride one resource... here the
	// queue enlists separately but the durable writes share the store; the
	// measured contrast (E22) is 2 resources vs 3 with a separate DB.
	clk := vclock.NewVirtualAtZero()
	b, _ := fileBroker(t)
	q := b.Queue("in")
	q.Send(jms.Message{Body: []byte("work")})
	mgr := tx.NewManager("s1", clk, nil, nil)
	txn := mgr.Begin(0)
	if _, err := q.ReceiveTx(txn); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 0 {
		t.Fatal("message not consumed")
	}
}

// TestStoreStaysBoundedUnderChurn: the broker's store holds the WAL's
// 1 MiB checkpoint threshold, two pages of main-file framing and the live
// image — nothing more — however many messages pass through. The
// append-only store it replaced grew ~115 B per send+ack, without bound.
func TestStoreStaysBoundedUnderChurn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s1.store")
	st, w := openWAL(t, path)
	q := jms.NewBroker("s1", st, nil).Queue("orders")
	body := []byte("order: 3 anvils, 1 rocket")
	for i := 0; i < 100; i++ { // a standing backlog keeps the image non-empty
		if _, err := q.Send(jms.Message{Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	const cycles, page = 60000, 4096
	var peak int64
	for i := 0; i < cycles; i++ {
		if _, err := q.Send(jms.Message{Body: body}); err != nil {
			t.Fatal(err)
		}
		m, err := q.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if err := q.Ack(m.ID); err != nil {
			t.Fatal(err)
		}
		n := footprint(t, path)
		peak = max(peak, n)
		if n <= 1<<20+2*page {
			continue
		}
		// Over the fixed part: the live image must account for the rest
		// (each record framed with two length varints of at most 10 bytes).
		var live int64
		img := w.Image()
		for _, sp := range img.Spaces() {
			img.Scan(sp, "", func(k, v string) bool {
				live += int64(len(sp) + 1 + len(k) + len(v) + 20) // the flat key space\x00key
				return true
			})
		}
		if n > 1<<20+2*page+live {
			t.Fatalf("cycle %d: store is %d bytes, over 1 MiB + 2 pages + %d live", i, n, live)
		}
	}
	t.Logf("%d send+ack cycles: peak store size %d bytes", cycles, peak)
}

// --- Remote surface -----------------------------------------------------------

func TestRemoteSendAndReceive(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	b := jms.NewBroker("server-2", nil, f.Servers[1].Metrics)
	f.Servers[1].Registry.Register(b.RMIService())
	f.Settle(2)

	ctx := context.Background()
	addr := f.Servers[1].Endpoint.Addr()
	id, err := jms.SendRemote(ctx, f.Servers[0].Endpoint, addr, "orders", jms.Message{Body: []byte("hi")})
	if err != nil || id == "" {
		t.Fatalf("send: %v id=%q", err, id)
	}
	m, err := jms.ReceiveRemote(ctx, f.Servers[0].Endpoint, addr, "orders")
	if err != nil || string(m.Body) != "hi" {
		t.Fatalf("receive: %v %q", err, m.Body)
	}
	if _, err := jms.ReceiveRemote(ctx, f.Servers[0].Endpoint, addr, "orders"); !errors.Is(err, jms.ErrEmpty) {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestDeliverDeduplicates(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	b := jms.NewBroker("server-2", nil, f.Servers[1].Metrics)
	f.Servers[1].Registry.Register(b.RMIService())
	f.Settle(2)

	// The SAF sender retries the same message ID (lost ACK): the receiver
	// must enqueue it once.
	local := jms.NewBroker("server-1", nil, f.Servers[0].Metrics)
	lq := local.Queue("buffer")
	lq.Send(jms.Message{ID: "fixed-id", Body: []byte("once")})
	fw := jms.NewForwarder(lq, f.Servers[0].Endpoint, f.Servers[1].Endpoint.Addr(), "dst", f.Clock, 100*time.Millisecond)
	fw.Start()
	defer fw.Stop()
	// Wait until the first copy has actually been forwarded...
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && b.Queue("dst").Len() == 0 {
		f.Settle(2)
		time.Sleep(2 * time.Millisecond)
	}
	// ...then redeliver (as if the ACK was lost and the agent retried).
	lq.Send(jms.Message{ID: "fixed-id", Body: []byte("once")})
	for time.Now().Before(deadline) && b.Metrics().Counter("jms.dedup_drops").Value() == 0 {
		f.Settle(2)
		time.Sleep(2 * time.Millisecond)
	}
	if got := b.Queue("dst").Len(); got != 1 {
		t.Fatalf("duplicate delivered: len=%d", got)
	}
	if b.Metrics().Counter("jms.dedup_drops").Value() == 0 {
		t.Fatal("dedup not exercised")
	}
}

func TestSAFBuffersThroughOutage(t *testing.T) {
	// §4: "store-and-forward messaging provides an attractive way of
	// buffering work to handle temporarily disconnected ... systems".
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	remote := jms.NewBroker("server-2", nil, f.Servers[1].Metrics)
	f.Servers[1].Registry.Register(remote.RMIService())
	f.Settle(2)

	local := jms.NewBroker("server-1", nil, f.Servers[0].Metrics)
	lq := local.Queue("buffer")
	fw := jms.NewForwarder(lq, f.Servers[0].Endpoint, f.Servers[1].Endpoint.Addr(), "dst", f.Clock, 100*time.Millisecond)
	fw.Start()
	defer fw.Stop()

	// Partition the WAN link; producers keep producing.
	f.Net.SetPartitioned(f.Servers[0].Endpoint.Addr(), f.Servers[1].Endpoint.Addr(), true)
	for i := 0; i < 10; i++ {
		lq.Send(jms.Message{Body: []byte(fmt.Sprintf("m%d", i))})
	}
	f.Settle(10)
	time.Sleep(10 * time.Millisecond)
	if remote.Queue("dst").Len() != 0 {
		t.Fatal("messages crossed a partitioned link")
	}
	if lq.Len() == 0 {
		t.Fatal("buffer drained during outage (messages lost?)")
	}

	// Heal: everything flows, in order, exactly once.
	f.Net.SetPartitioned(f.Servers[0].Endpoint.Addr(), f.Servers[1].Endpoint.Addr(), false)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && remote.Queue("dst").Len() < 10 {
		f.Settle(4)
		time.Sleep(5 * time.Millisecond)
	}
	if got := remote.Queue("dst").Len(); got != 10 {
		t.Fatalf("delivered %d of 10 after heal", got)
	}
	for i := 0; i < 10; i++ {
		m, err := remote.Queue("dst").Receive()
		if err != nil || string(m.Body) != fmt.Sprintf("m%d", i) {
			t.Fatalf("order broken at %d: %q err=%v", i, m.Body, err)
		}
	}
}

func TestForwarderStopsCleanly(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	local := jms.NewBroker("server-1", nil, nil)
	fw := jms.NewForwarder(local.Queue("b"), f.Servers[0].Endpoint, f.Servers[1].Endpoint.Addr(), "d", f.Clock, 100*time.Millisecond)
	fw.Start()
	fw.Stop()
	f.Settle(5) // no panic, no forwarding
}

// footprint is a WAL store's size on disk: its main file and its log.
func footprint(t *testing.T, path string) int64 {
	t.Helper()
	var n int64
	for _, p := range []string{path, path + "-wal"} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}
