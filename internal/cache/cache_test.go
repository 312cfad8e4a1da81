package cache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"wls/internal/gossip"
	"wls/internal/store"
	"wls/internal/vclock"
)

// backend wires a cache to a store table with a counting loader.
type backend struct {
	s     *store.Store
	loads int
	mu    sync.Mutex
}

func (b *backend) loader(table string) Loader {
	return func(key string) ([]byte, bool) {
		b.mu.Lock()
		b.loads++
		b.mu.Unlock()
		r, ok := b.s.Get(table, key)
		if !ok {
			return nil, false
		}
		return []byte(r.Fields["v"]), true
	}
}

func (b *backend) loadCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.loads
}

func fields(v string) map[string]string { return map[string]string{"v": v} }

func setup(clk vclock.Clock) (*backend, *gossip.InMemory) {
	b := &backend{s: store.New("db", clk)}
	b.s.Put("t", "k1", fields("one"))
	b.s.Put("t", "k2", fields("two"))
	return b, gossip.NewInMemory(clk, 1)
}

func TestGetLoadsOnceWithinTTL(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	b, _ := setup(clk)
	c := New(Config{Name: "t", TTL: time.Second}, clk, nil, nil, b.loader("t"))
	for i := 0; i < 5; i++ {
		v, ok := c.Get("k1")
		if !ok || string(v) != "one" {
			t.Fatalf("get = %q ok=%v", v, ok)
		}
	}
	if b.loadCount() != 1 {
		t.Fatalf("loads = %d, want 1", b.loadCount())
	}
	if c.hits.Value() != 4 {
		t.Fatalf("hits = %d", c.hits.Value())
	}
}

func TestTTLExpiryReloads(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	b, _ := setup(clk)
	c := New(Config{Name: "t", TTL: time.Second}, clk, nil, nil, b.loader("t"))
	c.Get("k1")
	b.s.Put("t", "k1", fields("ONE")) // backend changes
	// Within TTL: stale value served (the paper's staleness window).
	if v, _ := c.Get("k1"); string(v) != "one" {
		t.Fatalf("expected stale value within TTL, got %q", v)
	}
	clk.Advance(2 * time.Second)
	if v, _ := c.Get("k1"); string(v) != "ONE" {
		t.Fatalf("expected reload after TTL, got %q", v)
	}
}

func TestMissingKey(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	b, _ := setup(clk)
	c := New(Config{Name: "t", TTL: time.Second}, clk, nil, nil, b.loader("t"))
	if _, ok := c.Get("nope"); ok {
		t.Fatal("missing key reported found")
	}
}

func TestFlushOnUpdateAcrossInstances(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	b, bus := setup(clk)
	// Two cache instances (two servers) on the same bus.
	c1 := New(Config{Name: "t", Mode: ModeFlushOnUpdate, TTL: time.Hour}, clk, bus, nil, b.loader("t"))
	defer c1.Close()
	c2 := New(Config{Name: "t", Mode: ModeFlushOnUpdate, TTL: time.Hour}, clk, bus, nil, b.loader("t"))
	defer c2.Close()

	c1.Get("k1")
	c2.Get("k1")

	// Server 1 updates and, after commit, broadcasts the flush.
	b.s.Put("t", "k1", fields("ONE"))
	c1.BroadcastFlush("server-1", "k1")

	if v, _ := c1.Get("k1"); string(v) != "ONE" {
		t.Fatalf("c1 = %q", v)
	}
	if v, _ := c2.Get("k1"); string(v) != "ONE" {
		t.Fatalf("c2 = %q (flush signal not received)", v)
	}
}

func TestBroadcastFlushAllEntries(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	b, bus := setup(clk)
	c := New(Config{Name: "t", Mode: ModeFlushOnUpdate, TTL: time.Hour}, clk, bus, nil, b.loader("t"))
	defer c.Close()
	c.Get("k1")
	c.Get("k2")
	c.BroadcastFlush("s", "")
	if c.Len() != 0 {
		t.Fatalf("len = %d after flush-all", c.Len())
	}
}

func TestCloseUnsubscribes(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	b, bus := setup(clk)
	c := New(Config{Name: "t", Mode: ModeFlushOnUpdate, TTL: time.Hour}, clk, bus, nil, b.loader("t"))
	c.Get("k1")
	c.Close()
	bus.Publish(gossip.Message{Topic: FlushTopic("t"), Payload: []byte("k1")})
	if c.Len() != 1 {
		t.Fatal("closed cache still processed flush")
	}
}

func TestPeekDoesNotLoad(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	b, _ := setup(clk)
	c := New(Config{Name: "t", TTL: time.Second}, clk, nil, nil, b.loader("t"))
	if _, ok := c.Peek("k1"); ok {
		t.Fatal("peek of unloaded key reported found")
	}
	c.Get("k1")
	v, ok := c.Peek("k1")
	if !ok || string(v) != "one" {
		t.Fatalf("peek = %q ok=%v", v, ok)
	}
	clk.Advance(2 * time.Second)
	if _, ok := c.Peek("k1"); ok {
		t.Fatal("peek returned expired entry")
	}
}

func TestDependencyInvalidation(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	b, _ := setup(clk)
	// A derived page computed from two rows.
	pageLoader := func(key string) ([]byte, bool) {
		r1, _ := b.s.Get("t", "k1")
		r2, _ := b.s.Get("t", "k2")
		return []byte(r1.Fields["v"] + "+" + r2.Fields["v"]), true
	}
	c := New(Config{Name: "pages", TTL: time.Hour}, clk, nil, nil, pageLoader)
	c.Get("page")
	c.Depend("page", "t", "k1")
	c.Depend("page", "t", "k2")

	b.s.Put("t", "k2", fields("TWO"))
	c.InvalidateBackend("t", "k2")
	if v, _ := c.Get("page"); string(v) != "one+TWO" {
		t.Fatalf("page = %q", v)
	}
}

func TestWholeTableDependency(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	b, _ := setup(clk)
	c := New(Config{Name: "t", TTL: time.Hour}, clk, nil, nil, b.loader("t"))
	c.Get("k1")
	c.Depend("k1", "t", "") // coarse: any change to table t
	c.InvalidateBackend("t", "whatever-row")
	b.s.Put("t", "k1", fields("ONE"))
	if v, _ := c.Get("k1"); string(v) != "ONE" {
		t.Fatalf("coarse dependency did not invalidate: %q", v)
	}
}

func TestSlicePreloadAndQueryLocal(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	b, _ := setup(clk)
	c := New(Config{Name: "t", TTL: time.Hour}, clk, nil, nil, b.loader("t"))
	c.DefineSlice("all", []string{"k1", "k2"})
	if b.loadCount() != 2 {
		t.Fatalf("preload loads = %d", b.loadCount())
	}
	// Query entirely in memory.
	got := c.QueryLocal(func(k string, v []byte) bool { return string(v) == "two" })
	if len(got) != 1 || string(got["k2"]) != "two" {
		t.Fatalf("query = %v", got)
	}
	if b.loadCount() != 2 {
		t.Fatal("QueryLocal touched the backend")
	}
}

func TestRefreshSliceAfterUpdate(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	b, _ := setup(clk)
	c := New(Config{Name: "t", TTL: time.Hour}, clk, nil, nil, b.loader("t"))
	c.DefineSlice("all", []string{"k1", "k2"})
	b.s.Put("t", "k1", fields("ONE"))
	b.s.Delete("t", "k2")
	c.RefreshSlice("all")
	if v, ok := c.Peek("k1"); !ok || string(v) != "ONE" {
		t.Fatalf("k1 = %q ok=%v", v, ok)
	}
	if _, ok := c.Peek("k2"); ok {
		t.Fatal("deleted row still in slice")
	}
}

func TestTriggerFlusherCatchesBackdoor(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	b, bus := setup(clk)
	c := New(Config{Name: "t", Mode: ModeFlushOnUpdate, TTL: time.Hour}, clk, bus, nil, b.loader("t"))
	defer c.Close()
	c.Get("k1")
	c.Depend("k1", "t", "k1")
	TriggerFlusher(b.s, "t", c, "server-1")

	// Backdoor write (not through the app server) fires the trigger.
	b.s.Put("t", "k1", fields("BACKDOOR"))
	if v, _ := c.Get("k1"); string(v) != "BACKDOOR" {
		t.Fatalf("trigger missed backdoor update: %q", v)
	}
}

func TestSnifferCatchesBackdoorAfterPoll(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	b, bus := setup(clk)
	c := New(Config{Name: "t", Mode: ModeFlushOnUpdate, TTL: time.Hour}, clk, bus, nil, b.loader("t"))
	defer c.Close()
	c.Get("k1")
	c.Depend("k1", "t", "k1")
	sn := NewSniffer(b.s, c, clk, 100*time.Millisecond, "server-1")
	sn.Start()
	defer sn.Stop()

	b.s.Put("t", "k1", fields("BACKDOOR"))
	// Before the poll: stale (the sniffing delay).
	if v, _ := c.Get("k1"); string(v) != "one" {
		t.Fatalf("expected staleness before poll, got %q", v)
	}
	clk.Advance(150 * time.Millisecond)
	if v, _ := c.Get("k1"); string(v) != "BACKDOOR" {
		t.Fatalf("sniffer missed backdoor update: %q", v)
	}
}

// TestNewSnifferFollowsWithoutResync: a sniffer's first checkpoint is the
// store's first, so a backdoor write right after NewSniffer is in the
// window and invalidates incrementally.
func TestNewSnifferFollowsWithoutResync(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	b, _ := setup(clk)
	c := New(Config{Name: "t", TTL: time.Hour}, clk, nil, nil, b.loader("t"))
	c.Get("k1")
	c.Get("k2")
	c.Depend("k1", "t", "k1")
	sn := NewSniffer(b.s, c, clk, time.Second, "s1")
	b.s.Put("t", "k1", fields("BACKDOOR"))
	sn.SniffOnce()
	if n := c.snifferResyncs.Value(); n != 0 {
		t.Fatalf("sniffer_resyncs = %d, want 0", n)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want k2 alone", c.Len())
	}
	if v, _ := c.Get("k1"); string(v) != "BACKDOOR" {
		t.Fatalf("sniffer missed the backdoor update: %q", v)
	}
}

func TestSnifferCheckpointAdvances(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	b, _ := setup(clk)
	c := New(Config{Name: "t", TTL: time.Hour}, clk, nil, nil, b.loader("t"))
	sn := NewSniffer(b.s, c, clk, time.Second, "s")
	b.s.Put("t", "k1", fields("x"))
	sn.SniffOnce()
	flushesAfterFirst := c.flushes.Value()
	sn.SniffOnce() // no new changes: no more flushes
	if c.flushes.Value() != flushesAfterFirst {
		t.Fatal("sniffer reprocessed old changes")
	}
}

func TestConcurrentGets(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	b, _ := setup(clk)
	for i := 0; i < 100; i++ {
		b.s.Put("t", fmt.Sprintf("key%d", i), fields(fmt.Sprint(i)))
	}
	c := New(Config{Name: "t", TTL: time.Hour}, clk, nil, nil, b.loader("t"))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := fmt.Sprintf("key%d", i)
				v, ok := c.Get(k)
				if !ok || string(v) != fmt.Sprint(i) {
					t.Errorf("get %s = %q ok=%v", k, v, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestStalenessWindowMeasurement(t *testing.T) {
	// E10/E11 shape check in miniature: TTL mode's staleness is bounded by
	// the TTL; flush-on-update mode's staleness is one bus hop (zero here).
	clk := vclock.NewVirtualAtZero()
	b, bus := setup(clk)

	ttlCache := New(Config{Name: "ttl", TTL: time.Second}, clk, nil, nil, b.loader("t"))
	fouCache := New(Config{Name: "t", Mode: ModeFlushOnUpdate, TTL: time.Hour}, clk, bus, nil, b.loader("t"))
	defer fouCache.Close()

	ttlCache.Get("k1")
	fouCache.Get("k1")
	b.s.Put("t", "k1", fields("NEW"))
	fouCache.BroadcastFlush("updater", "k1")

	// Flush-on-update sees the new value immediately.
	if v, _ := fouCache.Get("k1"); string(v) != "NEW" {
		t.Fatalf("fou = %q", v)
	}
	// TTL cache is stale until the TTL elapses.
	if v, _ := ttlCache.Get("k1"); string(v) != "one" {
		t.Fatalf("ttl should be stale, got %q", v)
	}
	clk.Advance(time.Second + time.Millisecond)
	if v, _ := ttlCache.Get("k1"); string(v) != "NEW" {
		t.Fatalf("ttl after expiry = %q", v)
	}
}

func TestSnifferResyncsAfterChangeLogTrim(t *testing.T) {
	clk := vclock.NewVirtualAtZero()
	b, _ := setup(clk)
	b.s.SetChangeCap(4)
	c := New(Config{Name: "t", TTL: time.Hour}, clk, nil, nil, b.loader("t"))
	c.Get("k1")
	c.Get("k2")
	sn := NewSniffer(b.s, c, clk, time.Second, "s1")

	// A backdoor burst larger than the bounded change log: the sniffer's
	// cursor falls out of the window, so it cannot know which rows changed.
	for i := 0; i < 10; i++ {
		b.s.Put("t", fmt.Sprintf("burst%d", i), fields("x"))
	}
	sn.SniffOnce()
	if c.Len() != 0 {
		t.Fatalf("resync must flush the whole cache; %d entries remain", c.Len())
	}
	if n := c.snifferResyncs.Value(); n != 1 {
		t.Fatalf("sniffer_resyncs = %d, want 1", n)
	}

	// The cursor restarted at the store's LSN: the next change is caught
	// incrementally, without another full flush.
	c.Get("k1")
	c.Depend("k1", "t", "k1")
	b.s.Put("t", "k1", fields("BACKDOOR"))
	sn.SniffOnce()
	if v, _ := c.Get("k1"); string(v) != "BACKDOOR" {
		t.Fatalf("post-resync incremental sniff missed the update: %q", v)
	}
	if n := c.snifferResyncs.Value(); n != 1 {
		t.Fatalf("incremental sniff resynced again: %d", n)
	}
}
