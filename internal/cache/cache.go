// Package cache implements the cached-service type of §3.3: data held in
// memory on many servers to satisfy reads, with a spectrum of consistency
// options, because "increased consistency generally comes at the expense of
// scalability, performance, and/or functionality, and a variety of options
// should be provided".
//
// The options, exactly as enumerated in the paper:
//
//   - TTL: "have each cache flush itself at regular intervals according to
//     a configured time-to-live value" — no inter-server communication.
//   - Flush-on-update: "flush the caches after each update completes, but
//     not within the updating transaction" — a bean-level flush signal on
//     the lightweight multicast bus; a window of staleness remains.
//   - Preloaded slices: "initially preload them with specified slices of
//     data and then to refresh the slices as updates occur", enabling
//     "querying through the cache in the manner of in-memory databases".
//
// Backdoor updates (applications sharing the database but bypassing the
// application server) are caught by "either triggers or log-sniffing":
// TriggerFlusher attaches a database trigger that broadcasts flushes, and
// Sniffer polls the store's change log from a checkpoint LSN.
//
// Dependency tracking maps backend rows to the cache entries computed from
// them (the paper's granularity-of-tracking discussion): entries register
// the (table, key) pairs they were derived from, and invalidation follows
// the map.
package cache

import (
	"sync"
	"time"

	"wls/internal/gossip"
	"wls/internal/metrics"
	"wls/internal/store"
	"wls/internal/vclock"
)

// Loader computes a cache entry from the backend; it returns the value (an
// opaque byte payload — relational rows, objects, HTML or XML per §3.3)
// and whether the key exists.
type Loader func(key string) (value []byte, ok bool)

// Mode selects the consistency option.
type Mode int

// Consistency modes.
const (
	// ModeTTL flushes entries only when their time-to-live lapses.
	ModeTTL Mode = iota
	// ModeFlushOnUpdate additionally subscribes to bus flush signals
	// (sent by updaters after commit, outside the transaction).
	ModeFlushOnUpdate
)

// Config configures a cache.
type Config struct {
	// Name scopes the flush topic (typically the bean or page name).
	Name string
	// Mode selects the consistency option.
	Mode Mode
	// TTL is the entry time-to-live (0 = never expires by time).
	TTL time.Duration
}

// entry is one cached value.
type entry struct {
	value    []byte
	loadedAt time.Time
}

// Cache is one server's in-memory copy for one named data set.
type Cache struct {
	cfg   Config
	clock vclock.Clock
	bus   gossip.Bus
	reg   *metrics.Registry
	load  Loader

	mu      sync.Mutex
	entries map[string]*entry
	deps    map[depKey]map[string]bool // backend row → cache keys
	slices  map[string][]string        // slice name → keys
	unsub   func()
}

type depKey struct{ table, key string }

// FlushTopic returns the bus topic carrying flush signals for a cache name.
func FlushTopic(name string) string { return "cache/flush/" + name }

// New creates a cache. bus may be nil for ModeTTL.
func New(cfg Config, clock vclock.Clock, bus gossip.Bus, reg *metrics.Registry, load Loader) *Cache {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	c := &Cache{
		cfg:     cfg,
		clock:   clock,
		bus:     bus,
		reg:     reg,
		load:    load,
		entries: make(map[string]*entry),
		deps:    make(map[depKey]map[string]bool),
		slices:  make(map[string][]string),
	}
	if cfg.Mode == ModeFlushOnUpdate && bus != nil {
		c.unsub = bus.Subscribe(FlushTopic(cfg.Name), func(m gossip.Message) {
			key := string(m.Payload)
			if key == "" {
				c.FlushAll()
			} else {
				c.Flush(key)
			}
		})
	}
	return c
}

// Close unsubscribes from the flush topic.
func (c *Cache) Close() {
	if c.unsub != nil {
		c.unsub()
	}
}

// Get returns the cached value for key, loading on miss or expiry.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok && c.fresh(e) {
		c.reg.Counter("cache.hits").Inc()
		v := append([]byte(nil), e.value...)
		c.mu.Unlock()
		return v, true
	}
	c.mu.Unlock()

	c.reg.Counter("cache.misses").Inc()
	value, found := c.load(key)
	if !found {
		return nil, false
	}
	c.mu.Lock()
	c.entries[key] = &entry{value: value, loadedAt: c.clock.Now()}
	c.mu.Unlock()
	return append([]byte(nil), value...), true
}

// fresh reports TTL validity (c.mu held).
func (c *Cache) fresh(e *entry) bool {
	return c.cfg.TTL <= 0 || c.clock.Since(e.loadedAt) <= c.cfg.TTL
}

// Flush drops one entry.
func (c *Cache) Flush(key string) {
	c.mu.Lock()
	delete(c.entries, key)
	c.mu.Unlock()
	c.reg.Counter("cache.flushes").Inc()
}

// FlushAll drops everything.
func (c *Cache) FlushAll() {
	c.mu.Lock()
	c.entries = make(map[string]*entry)
	c.mu.Unlock()
	c.reg.Counter("cache.flushes").Inc()
}

// BroadcastFlush signals every cache instance with this name, cluster-wide,
// to drop key ("" = all). Callers invoke it after their updating
// transaction commits — never inside it — or manually "in the event that
// the application observes a backdoor update" (§3.3).
func (c *Cache) BroadcastFlush(from, key string) {
	if c.bus == nil {
		c.Flush(key)
		return
	}
	c.bus.Publish(gossip.Message{Topic: FlushTopic(c.cfg.Name), From: from, Payload: []byte(key)})
}

// Len returns the number of resident entries (fresh or not).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// ---------------------------------------------------------------------------
// Dependency tracking

// Depend records that cacheKey was computed from the backend row
// (table, rowKey). Finer-grained registration yields longer-lived caching;
// coarse registration (whole table) is cheaper to maintain (§3.3's
// granularity trade-off).
//
//wls:nolint unreached -- library-only: §3.3, TestDependencyInvalidation
func (c *Cache) Depend(cacheKey, table, rowKey string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dk := depKey{table, rowKey}
	if c.deps[dk] == nil {
		c.deps[dk] = make(map[string]bool)
	}
	c.deps[dk][cacheKey] = true
}

// InvalidateBackend flushes every cache entry derived from the backend row.
// rowKey "" invalidates everything derived from the table.
func (c *Cache) InvalidateBackend(table, rowKey string) {
	c.mu.Lock()
	var victims []string
	collect := func(dk depKey) {
		for ck := range c.deps[dk] {
			victims = append(victims, ck)
		}
	}
	if rowKey == "" {
		for dk := range c.deps {
			if dk.table == table {
				collect(dk)
			}
		}
	} else {
		collect(depKey{table, rowKey})
		collect(depKey{table, ""}) // whole-table dependencies
	}
	for _, ck := range victims {
		delete(c.entries, ck)
	}
	c.mu.Unlock()
	if len(victims) > 0 {
		c.reg.Counter("cache.flushes").Add(int64(len(victims)))
	}
}

// ---------------------------------------------------------------------------
// Preloaded slices (query through the cache)

// DefineSlice registers a named slice of keys and preloads them.
//
//wls:nolint unreached -- library-only: §3.3, TestSlicePreloadAndQueryLocal
func (c *Cache) DefineSlice(name string, keys []string) {
	c.mu.Lock()
	c.slices[name] = append([]string(nil), keys...)
	c.mu.Unlock()
	c.RefreshSlice(name)
}

// RefreshSlice re-loads every key of a slice from the backend ("refresh the
// slices as updates occur").
func (c *Cache) RefreshSlice(name string) {
	c.mu.Lock()
	keys := append([]string(nil), c.slices[name]...)
	c.mu.Unlock()
	now := c.clock.Now()
	for _, k := range keys {
		value, found := c.load(k)
		c.mu.Lock()
		if found {
			c.entries[k] = &entry{value: value, loadedAt: now}
		} else {
			delete(c.entries, k)
		}
		c.mu.Unlock()
	}
	c.reg.Counter("cache.slice_refreshes").Inc()
}

// QueryLocal scans the resident fresh entries — "querying through the
// cache in the manner of in-memory databases". It never touches the
// backend; with preloaded slices "the set of data in memory is known at
// all times".
//
//wls:nolint unreached -- library-only: §3.3, TestSlicePreloadAndQueryLocal
func (c *Cache) QueryLocal(match func(key string, value []byte) bool) map[string][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string][]byte)
	for k, e := range c.entries {
		if c.fresh(e) && match(k, e.value) {
			out[k] = append([]byte(nil), e.value...)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Backdoor-update detection (§3.3)

// TriggerFlusher attaches a database trigger on the table that broadcasts a
// row-level flush whenever anyone — including backdoor applications —
// commits a change.
//
//wls:nolint unreached -- library-only: §3.3, TestTriggerFlusherCatchesBackdoor
func TriggerFlusher(s *store.Store, table string, c *Cache, from string) {
	s.RegisterTrigger(table, func(ch store.Change) {
		c.InvalidateBackend(ch.Table, ch.Key)
		c.BroadcastFlush(from, ch.Key)
	})
}

// Sniffer polls a store's change log ("log-sniffing") and invalidates
// dependent cache entries. Unlike triggers it needs no hooks inside the
// database, at the cost of a polling delay.
type Sniffer struct {
	store    *store.Store
	cache    *Cache
	clock    vclock.Clock
	interval time.Duration
	from     string

	mu      sync.Mutex
	sinceLS uint64
	timer   vclock.Timer
	stopped bool
}

// NewSniffer creates a log sniffer starting from the store's current LSN.
//
//wls:nolint unreached -- library-only: §3.3, TestSnifferCatchesBackdoorAfterPoll
func NewSniffer(s *store.Store, c *Cache, clock vclock.Clock, interval time.Duration, from string) *Sniffer {
	return &Sniffer{
		store:    s,
		cache:    c,
		clock:    clock,
		interval: interval,
		from:     from,
		sinceLS:  s.LastLSN(),
	}
}

// Start begins polling.
func (sn *Sniffer) Start() {
	sn.mu.Lock()
	sn.stopped = false
	sn.mu.Unlock()
	sn.schedule()
}

// Stop halts polling.
func (sn *Sniffer) Stop() {
	sn.mu.Lock()
	sn.stopped = true
	t := sn.timer
	sn.timer = nil
	sn.mu.Unlock()
	if t != nil {
		t.Stop()
	}
}

func (sn *Sniffer) schedule() {
	sn.mu.Lock()
	if sn.stopped {
		sn.mu.Unlock()
		return
	}
	sn.timer = sn.clock.AfterFunc(sn.interval, func() {
		sn.SniffOnce()
		sn.schedule()
	})
	sn.mu.Unlock()
}

// SniffOnce processes any new change-log entries now. If the sniffer has
// fallen behind the store's bounded change log (ErrChangesTrimmed — e.g.
// after a store restart, or a long sniff pause), it cannot know which
// rows changed in the trimmed window, so it resynchronizes: flush the
// whole cache and restart from the store's current LSN.
func (sn *Sniffer) SniffOnce() {
	sn.mu.Lock()
	since := sn.sinceLS
	sn.mu.Unlock()
	changes, err := sn.store.Changes(since)
	if err != nil {
		sn.cache.FlushAll()
		sn.cache.reg.Counter("cache.sniffer_resyncs").Inc()
		sn.mu.Lock()
		sn.sinceLS = sn.store.LastLSN()
		sn.mu.Unlock()
		return
	}
	for _, ch := range changes {
		sn.cache.InvalidateBackend(ch.Table, ch.Key)
		sn.cache.BroadcastFlush(sn.from, ch.Key)
	}
	if len(changes) > 0 {
		sn.mu.Lock()
		sn.sinceLS = changes[len(changes)-1].LSN
		sn.mu.Unlock()
	}
}
