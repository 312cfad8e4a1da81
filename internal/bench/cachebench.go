package bench

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wls"
	"wls/internal/cache"
	"wls/internal/ejb"
	"wls/internal/servlet"
	"wls/internal/store"
	"wls/internal/vclock"
	"wls/internal/workload"
)

func init() {
	register(Experiment{ID: "E10", Title: "Cache consistency options: throughput vs staleness",
		Source: "§3.3: increased consistency costs scalability/performance", Run: runE10})
	register(Experiment{ID: "E11", Title: "Flush-on-update vs TTL across update rates",
		Source: "§3.3: frequent updates make flushing tantamount to not caching", Run: runE11})
	register(Experiment{ID: "E12", Title: "Optimistic concurrency vs pessimistic locks on a hot row",
		Source: "§3.3: no database locks held; flush after commit reduces exceptions", Run: runE12})
	register(Experiment{ID: "E13", Title: "Backdoor update detection: triggers vs log-sniffing",
		Source: "§3.3", Run: runE13})
	register(Experiment{ID: "E14", Title: "JSP whole-page vs fragment caching",
		Source: "§3.3: fragment caching pays off for personalized pages", Run: runE14})
	register(Experiment{ID: "E15", Title: "Disconnected RowSets",
		Source: "§3.3: serialize, edit on the client, optimistic submit", Run: runE15})
}

// runE10: two servers cache an entity; a writer updates it; a reader hammers
// reads. Compare read cost and staleness across consistency modes.
func runE10() *Table {
	t := &Table{ID: "E10", Title: "Entity-bean consistency options",
		Source:  "§3.3",
		Columns: []string{"mode", "reads/s", "stale_read_%", "db_reads", "flush_msgs"},
		Notes:   "TTL reads fastest but serves stale data for up to its TTL; flush-on-update stays fresh at the cost of invalidation traffic and reload misses"}

	type modeSpec struct {
		name string
		mode ejb.ConsistencyMode
		ttl  time.Duration
	}
	for _, m := range []modeSpec{
		{"ttl-50ms", ejb.EntityTTL, 50 * time.Millisecond},
		{"flush-on-update", ejb.EntityFlushOnUpdate, time.Hour},
		{"optimistic", ejb.EntityOptimistic, time.Hour},
	} {
		c, err := wls.New(wls.Options{Servers: 2, RealClock: true})
		if err != nil {
			panic(err)
		}
		c.DB.Put("items", "hot", map[string]string{"v": "0"})
		var homes []*ejb.EntityHome
		for _, s := range c.Servers {
			homes = append(homes, s.EJB.DeployEntity(ejb.EntitySpec{
				Name: "Item", Table: "items", Mode: m.mode, TTL: m.ttl,
			}))
		}
		var version atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // writer on server 2, ~1ms cadence
			defer wg.Done()
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				txn := c.Servers[1].Tx.Begin(0)
				e, err := homes[1].Find(txn, "hot")
				if err == nil {
					e.Set("v", fmt.Sprint(i))
					if txn.Commit() == nil {
						version.Store(int64(i))
					}
				} else {
					_ = txn.Rollback() // writer retries next tick
				}
				wall.Sleep(time.Millisecond)
			}
		}()

		// Read for a fixed window so the 1ms writer interleaves with the
		// read stream (a fixed read count would finish in microseconds).
		reads, stale := 0, 0
		start := wall.Now()
		for wall.Since(start) < 250*time.Millisecond {
			before := version.Load()
			f, err := homes[0].FindReadOnly("hot")
			if err != nil {
				continue
			}
			reads++
			var got int64
			fmt.Sscan(f["v"], &got)
			if got < before {
				stale++
			}
			wall.Sleep(20 * time.Microsecond)
		}
		elapsed := wall.Since(start)
		close(stop)
		wg.Wait()

		dbReads := c.DB.Metrics().Counter("store.reads").Value()
		flushes := c.Servers[0].Metrics().Counter("cache.flushes").Value()
		t.AddRow(m.name,
			fmt.Sprintf("%.0f", float64(reads)/elapsed.Seconds()),
			fmt.Sprintf("%.2f", 100*float64(stale)/float64(reads)),
			dbReads, flushes)
		c.Stop()
	}
	return t
}

// runE11: sweep the update interval on a virtual clock and measure cache
// hit rate under flush-on-update vs TTL.
func runE11() *Table {
	t := &Table{ID: "E11", Title: "Flush-on-update crossover",
		Source:  "§3.3",
		Columns: []string{"update_period", "mode", "hit_rate_%", "flush_signals"},
		Notes:   "rare updates: flush-on-update keeps ~100% hits and freshness; constant updates: every flush voids the cache (hit rate collapses) while TTL holds its hit rate by serving stale data"}

	for _, period := range []time.Duration{time.Second, 10 * time.Millisecond, time.Millisecond} {
		for _, mode := range []string{"flush-on-update", "ttl-100ms"} {
			clk := vclock.NewVirtualAtZero()
			db := store.New("db", clk)
			db.Put("t", "k", map[string]string{"v": "0"})
			bus := newBusOn(clk)
			cfg := cache.Config{Name: "t", TTL: 100 * time.Millisecond}
			if mode == "flush-on-update" {
				cfg = cache.Config{Name: "t", Mode: cache.ModeFlushOnUpdate, TTL: time.Hour}
			}
			ch := cache.New(cfg, clk, bus, nil, func(key string) ([]byte, bool) {
				r, ok := db.Get("t", key)
				if !ok {
					return nil, false
				}
				return []byte(r.Fields["v"]), true
			})
			flushes := 0
			// Simulate 10s: a read every 1ms; an update every period.
			nextUpdate := clk.Now().Add(period)
			hits, misses := 0, 0
			for i := 0; i < 10000; i++ {
				clk.Advance(time.Millisecond)
				if !clk.Now().Before(nextUpdate) {
					db.Put("t", "k", map[string]string{"v": fmt.Sprint(i)})
					if mode == "flush-on-update" {
						ch.BroadcastFlush("writer", "k")
						flushes++
					}
					nextUpdate = clk.Now().Add(period)
				}
				before := ch.Len() > 0
				if _, ok := ch.Get("k"); ok {
					if before {
						hits++
					} else {
						misses++
					}
				}
			}
			total := hits + misses
			t.AddRow(period, mode, fmt.Sprintf("%.1f", 100*float64(hits)/float64(total)), flushes)
			ch.Close()
		}
	}
	return t
}

// runE12: concurrent writers on a hot row.
func runE12() *Table {
	t := &Table{ID: "E12", Title: "Optimistic vs pessimistic on a hot row",
		Source:  "§3.3",
		Columns: []string{"scheme", "writers", "commits/s", "conflicts", "lock_timeouts", "concurrent_readers_blocked"},
		Notes:   "optimistic holds no database locks (readers never block) but pays concurrency exceptions on the hot row; pessimistic serializes writers and can time out"}

	const writers, perWriter = 8, 40
	for _, scheme := range []string{"optimistic", "pessimistic"} {
		db := store.New("db", vclock.System)
		db.Put("t", "hot", map[string]string{"n": "0"})
		var commits, conflicts, lockTimeouts atomic.Int64
		var readerBlocked atomic.Int64

		stopReaders := make(chan struct{})
		var rwg sync.WaitGroup
		rwg.Add(1)
		go func() { // concurrent reader: measures blocking
			defer rwg.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				t0 := wall.Now()
				db.Get("t", "hot")
				if wall.Since(t0) > 5*time.Millisecond {
					readerBlocked.Add(1)
				}
				wall.Sleep(200 * time.Microsecond)
			}
		}()

		start := wall.Now()
		workload.Clients(writers, perWriter, func(w, i int) {
			txID := fmt.Sprintf("%s-%d-%d", scheme, w, i)
			for attempt := 0; attempt < 100; attempt++ {
				id := fmt.Sprintf("%s-a%d", txID, attempt)
				sess := db.Session(id)
				if scheme == "pessimistic" {
					sess.LockTimeout = 50 * time.Millisecond
					row, _, err := sess.GetForUpdate("t", "hot")
					if err != nil {
						lockTimeouts.Add(1)
						_ = sess.Rollback(id) // lock timeout is the measured outcome
						continue
					}
					var n int
					fmt.Sscan(row.Fields["n"], &n)
					wall.Sleep(100 * time.Microsecond) // think time inside the lock
					sess.Update("t", "hot", map[string]string{"n": fmt.Sprint(n + 1)})
					if sess.Commit(id) == nil {
						commits.Add(1)
						return
					}
					continue
				}
				row, _ := db.Get("t", "hot")
				var n int
				fmt.Sscan(row.Fields["n"], &n)
				wall.Sleep(100 * time.Microsecond) // think time, no locks held
				sess.UpdateVersioned("t", "hot", row.Version, map[string]string{"n": fmt.Sprint(n + 1)})
				if err := sess.Commit(id); err == nil {
					commits.Add(1)
					return
				} else if errors.Is(err, store.ErrConflict) {
					conflicts.Add(1)
				}
			}
		})
		elapsed := wall.Since(start)
		close(stopReaders)
		rwg.Wait()
		t.AddRow(scheme, writers,
			fmt.Sprintf("%.0f", float64(commits.Load())/elapsed.Seconds()),
			conflicts.Load(), lockTimeouts.Load(), readerBlocked.Load())
	}
	return t
}

// runE13: backdoor writes with no detection, triggers, and log sniffing.
func runE13() *Table {
	t := &Table{ID: "E13", Title: "Backdoor update detection",
		Source:  "§3.3",
		Columns: []string{"detection", "stale_reads", "detection_lag"},
		Notes:   "triggers invalidate synchronously with the backdoor commit; the log sniffer's staleness window is its polling interval; no detection is stale until the TTL (infinite here)"}

	for _, det := range []string{"none", "trigger", "sniffer-50ms"} {
		clk := vclock.NewVirtualAtZero()
		db := store.New("db", clk)
		db.Put("t", "k", map[string]string{"v": "old"})
		bus := newBusOn(clk)
		ch := cache.New(cache.Config{Name: "t", Mode: cache.ModeFlushOnUpdate, TTL: time.Hour},
			clk, bus, nil, func(key string) ([]byte, bool) {
				r, ok := db.Get("t", key)
				if !ok {
					return nil, false
				}
				return []byte(r.Fields["v"]), true
			})
		ch.Get("k")
		ch.Depend("k", "t", "k")
		var sn *cache.Sniffer
		switch det {
		case "trigger":
			cache.TriggerFlusher(db, "t", ch, "s1")
		case "sniffer-50ms":
			sn = cache.NewSniffer(db, ch, clk, 50*time.Millisecond, "s1")
			sn.Start()
		}

		// The backdoor write, then reads every ms until fresh.
		db.Put("t", "k", map[string]string{"v": "new"})
		stale := 0
		var lag time.Duration = -1
		for i := 0; i < 1000; i++ {
			v, _ := ch.Get("k")
			if string(v) == "new" {
				lag = time.Duration(i) * time.Millisecond
				break
			}
			stale++
			clk.Advance(time.Millisecond)
		}
		lagStr := "never (until TTL)"
		if lag >= 0 {
			lagStr = lag.String()
		}
		t.AddRow(det, stale, lagStr)
		if sn != nil {
			sn.Stop()
		}
		ch.Close()
	}
	return t
}

// runE14: render cost of personalized pages under the two caching modes.
func runE14() *Table {
	t := &Table{ID: "E14", Title: "JSP page vs fragment caching",
		Source:  "§3.3",
		Columns: []string{"mode", "users", "requests", "fragment_renders", "renders_per_request"},
		Notes:   "with per-user personalization, whole-page entries cannot be shared; fragment caching renders shared fragments once"}

	page := func(renders *atomic.Int64) servlet.Page {
		return servlet.Page{
			Name: "home",
			Fragments: []servlet.Fragment{
				{Name: "header", Scope: servlet.ScopeGlobal, TTL: time.Hour,
					Render: func(u, g string) []byte { renders.Add(1); return []byte("[hdr]") }},
				{Name: "catalog", Scope: servlet.ScopeGlobal, TTL: time.Hour,
					Render: func(u, g string) []byte { renders.Add(1); return []byte("[catalog]") }},
				{Name: "greeting", Scope: servlet.ScopeUser, TTL: time.Hour,
					Render: func(u, g string) []byte { renders.Add(1); return []byte("[hi " + u + "]") }},
			},
		}
	}
	const users, reqsPerUser = 50, 10
	for _, mode := range []servlet.PageCacheMode{servlet.CacheWholePage, servlet.CacheFragments} {
		var renders atomic.Int64
		pc := servlet.NewPageCache(mode, vclock.NewVirtualAtZero(), nil)
		p := page(&renders)
		for u := 0; u < users; u++ {
			for r := 0; r < reqsPerUser; r++ {
				pc.Render(p, fmt.Sprintf("user-%d", u), "gold")
			}
		}
		name := "whole-page"
		if mode == servlet.CacheFragments {
			name = "fragment"
		}
		total := users * reqsPerUser
		t.AddRow(name, users, total, renders.Load(),
			fmt.Sprintf("%.2f", float64(renders.Load())/float64(total)))
	}
	return t
}

// runE15: RowSet round trips: encoding sizes and conflict behaviour.
func runE15() *Table {
	t := &Table{ID: "E15", Title: "Disconnected RowSets",
		Source:  "§3.3",
		Columns: []string{"metric", "value"},
		Notes:   "both encodings round-trip; stale submits fail with a concurrency conflict instead of silently overwriting"}

	db := store.New("db", vclock.System)
	for i := 0; i < 100; i++ {
		db.Put("products", fmt.Sprintf("p%03d", i), map[string]string{
			"name": fmt.Sprintf("product %d", i), "price": fmt.Sprint(10 + i),
		})
	}
	rs := db.Query("products", nil)
	bin := rs.EncodeBinary()
	xmlB, err := rs.EncodeXML()
	if err != nil {
		panic(err)
	}
	t.AddRow("rows", len(rs.Rows))
	t.AddRow("binary_bytes", len(bin))
	t.AddRow("xml_bytes", len(xmlB))
	t.AddRow("xml_overhead", ratio(float64(len(xmlB)), float64(len(bin)))+"x")

	// Client edits and submits; a second client's overlapping edit must
	// conflict.
	rs.Set("p000", "price", "999")
	sess := db.Session("t1")
	rs.Submit(sess)
	if err := sess.Commit("t1"); err != nil {
		panic(err)
	}
	rs2, _ := store.DecodeBinary(bin) // the stale disconnected copy
	rs2.Set("p000", "price", "111")
	sess2 := db.Session("t2")
	rs2.Submit(sess2)
	err2 := sess2.Commit("t2")
	t.AddRow("clean_submit", "committed")
	t.AddRow("stale_submit", fmt.Sprint(errors.Is(err2, store.ErrConflict)))
	return t
}
