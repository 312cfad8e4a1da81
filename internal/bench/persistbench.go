package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"wls"
	"wls/internal/core"
	"wls/internal/filestore"
	"wls/internal/kv"
	"wls/internal/metrics"
	"wls/internal/store"
	"wls/internal/tx"
	"wls/internal/vclock"
)

func init() {
	register(Experiment{ID: "E22", Title: "Co-located message + conversation store eliminates 2PC",
		Source: "§5.1: co-location of this data can eliminate two-phase commit", Run: runE22})
	register(Experiment{ID: "E23", Title: "Booting from local config replicas",
		Source: "§5.1: servers start more rapidly and more autonomously", Run: runE23})
}

// runE22: a workflow step = consume a message + update conversational
// state, committed transactionally. Co-located: both writes ride one
// filestore session (one resource → 1PC). Separate: the message store and
// a database are two resources (2PC + a coordinator log).
func runE22() *Table {
	t := &Table{ID: "E22", Title: "1PC via co-location vs 2PC",
		Source:  "§5.1",
		Columns: []string{"layout", "tx/s", "fsyncs_per_tx", "tx_log_writes", "2pc_rounds"},
		Notes:   "the co-located layout commits each step with one durable append; the split layout pays prepare+commit on two resources plus coordinator-log forces"}

	const steps = 300
	dir, _ := os.MkdirTemp("", "e22")
	defer os.RemoveAll(dir)

	// Co-located: one filestore holds both the message region and the
	// conversation region.
	{
		fs, err := filestore.Open(filepath.Join(dir, "colocated.log"), filestore.Options{SyncEveryAppend: true})
		if err != nil {
			panic(err)
		}
		mgr := tx.NewManager("s1", vclock.System, nil, nil)
		// Preload the inbound messages.
		for i := 0; i < steps; i++ {
			if err := fs.Put("jms.queue.in", fmt.Sprintf("m%06d", i), []byte("work")); err != nil {
				panic(err)
			}
		}
		syncs0 := fs.Metrics().Counter("kv.syncs").Value()
		start := wall.Now()
		for i := 0; i < steps; i++ {
			txn := mgr.Begin(0)
			sess := fs.Session()
			sess.Delete("jms.queue.in", fmt.Sprintf("m%06d", i)) // consume
			sess.Put("conversations", "wf-1", []byte(fmt.Sprintf("step-%d", i)))
			if err := txn.Enlist("filestore", sess); err != nil {
				panic(err)
			}
			if err := txn.Commit(); err != nil {
				panic(err)
			}
		}
		elapsed := wall.Since(start)
		syncs := fs.Metrics().Counter("kv.syncs").Value() - syncs0
		t.AddRow("co-located (one filestore)",
			fmt.Sprintf("%.0f", float64(steps)/elapsed.Seconds()),
			fmt.Sprintf("%.1f", float64(syncs)/steps),
			0, mgr.Metrics().Counter("tx.2pc").Value())
		_ = fs.Close()
	}

	// Separate: message store (filestore) + database (store) + durable
	// coordinator log.
	{
		fs, err := filestore.Open(filepath.Join(dir, "msgs.log"), filestore.Options{SyncEveryAppend: true})
		if err != nil {
			panic(err)
		}
		tlog, err := tx.OpenFileLog(filepath.Join(dir, "tlog"), true)
		if err != nil {
			panic(err)
		}
		db := store.New("db", vclock.System)
		mgr := tx.NewManager("s1", vclock.System, tlog, nil)
		for i := 0; i < steps; i++ {
			if err := fs.Put("jms.queue.in", fmt.Sprintf("m%06d", i), []byte("work")); err != nil {
				panic(err)
			}
		}
		syncs0 := fs.Metrics().Counter("kv.syncs").Value()
		start := wall.Now()
		for i := 0; i < steps; i++ {
			txn := mgr.Begin(0)
			msgs := fs.Session()
			msgs.Delete("jms.queue.in", fmt.Sprintf("m%06d", i))
			if err := txn.Enlist("message-store", msgs); err != nil {
				panic(err)
			}
			dbs := db.Session(txn.ID())
			dbs.Update("conversations", "wf-1", map[string]string{"step": fmt.Sprint(i)})
			if err := txn.Enlist("database", dbs); err != nil {
				panic(err)
			}
			if err := txn.Commit(); err != nil {
				panic(err)
			}
		}
		elapsed := wall.Since(start)
		mgr.Drain() // the done records are written behind the replies
		syncs := fs.Metrics().Counter("kv.syncs").Value() - syncs0
		recs, _ := tlog.Records()
		t.AddRow("separate (messages + DB)",
			fmt.Sprintf("%.0f", float64(steps)/elapsed.Seconds()),
			fmt.Sprintf("%.1f", float64(syncs)/steps),
			len(recs), mgr.Metrics().Counter("tx.2pc").Value())
		_ = tlog.Close()
		_ = fs.Close()
	}
	return t
}

// runE23: 16 servers boot by fetching config from the admin server over a
// 2ms link vs reading a local filestore replica.
func runE23() *Table {
	t := &Table{ID: "E23", Title: "Boot path: admin server vs local replica",
		Source:  "§5.1",
		Columns: []string{"path", "servers", "total_boot_time", "admin_required"},
		Notes:   "local replicas remove the admin round trip per server AND the availability dependency — servers boot even with the admin down"}

	const servers = 16
	dir, _ := os.MkdirTemp("", "e23")
	defer os.RemoveAll(dir)

	c, err := wls.New(wls.Options{Servers: 2, RealClock: true})
	if err != nil {
		panic(err)
	}
	defer c.Stop()
	d := core.NewDomain("prod")
	for i := 0; i < servers; i++ {
		d.AddServer("c", fmt.Sprintf("managed-%d", i), map[string]string{
			"port": "7001", "heap": "2g", "targets": "OrderService,CartBean",
		})
	}
	c.Servers[0].Registry().Register(d.AdminService())
	c.Net().SetDefaultLatency(2 * time.Millisecond)
	c.Settle(2)

	// Admin path.
	start := wall.Now()
	for i := 0; i < servers; i++ {
		if _, err := core.BootFromAdmin(context.Background(), c.Servers[1].Node(),
			c.Servers[0].Addr(), fmt.Sprintf("managed-%d", i)); err != nil {
			panic(err)
		}
	}
	t.AddRow("admin-server fetch", servers, wall.Since(start).Round(time.Millisecond), true)

	// Local path: replicate once, then boot from disk.
	fs, err := filestore.Open(filepath.Join(dir, "cfg.log"), filestore.Options{})
	if err != nil {
		panic(err)
	}
	defer fs.Close()
	for i := 0; i < servers; i++ {
		cfg, _ := d.ConfigOf(fmt.Sprintf("managed-%d", i))
		core.SaveLocalConfig(fs, fmt.Sprintf("managed-%d", i), cfg)
	}
	start = wall.Now()
	for i := 0; i < servers; i++ {
		if _, err := core.BootFromLocal(fs, fmt.Sprintf("managed-%d", i)); err != nil {
			panic(err)
		}
	}
	t.AddRow("local replica", servers, wall.Since(start).Round(time.Millisecond), false)
	return t
}

// checkoutResult is one run of the two-store checkout workload (E32).
type checkoutResult struct {
	commits         int
	perSec          float64
	fsyncsPerCommit float64 // kv syncs + coordinator-log appends
	replyWaits      float64 // flushes the reply waits for one after another
	allocsPerCommit float64
}

// slowDevice makes every flush take at least floor, so that a commit's
// latency in floors counts the flushes it waited for in sequence. It
// decorates the plain kv.FS and tx.Log interfaces, as benchmark/ does.
type slowDevice struct {
	floor   time.Duration
	appends atomic.Int64
}

func (d *slowDevice) settle(entry time.Time) {
	if rem := d.floor - wall.Since(entry); rem > 0 {
		wall.Sleep(rem)
	}
}

type slowFS struct {
	kv.FS
	d *slowDevice
}

func (f slowFS) OpenFile(name string, flag int, perm os.FileMode) (kv.File, error) {
	inner, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return slowFile{File: inner, d: f.d}, nil
}

type slowFile struct {
	kv.File
	d *slowDevice
}

func (f slowFile) Sync() error {
	entry := wall.Now()
	err := f.File.Sync()
	f.d.settle(entry)
	return err
}

type slowLog struct {
	tx.Log
	d *slowDevice
}

func (l slowLog) Append(r tx.Record) error {
	entry := wall.Now()
	err := l.Log.Append(r)
	l.d.appends.Add(1)
	l.d.settle(entry)
	return err
}

// runCheckout2PC commits the benchmark's /checkout — an order inserted in
// one WAL-backed store, a stock row updated in another, two-phase commit
// over a synced file log — from a single caller. A first pass on the bare
// disk gives throughput, fsyncs and allocations per commit; a second pass
// behind a 10 ms flush floor gives the number of flushes on the reply path.
func runCheckout2PC(dir string) checkoutResult {
	const commits, slowCommits, floor = 200, 30, 10 * time.Millisecond
	pass := func(sub string, n int, floor time.Duration) (elapsed time.Duration, median time.Duration, syncs int64, allocs uint64) {
		d := &slowDevice{floor: floor}
		reg := metrics.NewRegistry()
		open := func(name string) *store.Store {
			w, err := kv.OpenWAL(filepath.Join(dir, sub+name+".db"), kv.Options{SyncEveryCommit: true, Metrics: reg, FS: slowFS{kv.OSFS(), d}})
			if err != nil {
				panic(err)
			}
			s, err := store.Open(name, vclock.System, w)
			if err != nil {
				panic(err)
			}
			return s
		}
		orders, inventory := open("orders"), open("inventory")
		defer orders.Close()
		defer inventory.Close()
		tlog, err := tx.OpenFileLog(filepath.Join(dir, sub+"tlog"), true)
		if err != nil {
			panic(err)
		}
		defer tlog.Close()
		mgr := tx.NewManager("s1", vclock.System, slowLog{tlog, d}, nil)
		inventory.Put("stock", "sku-1", map[string]string{"qty": "100"})
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("o-%d", i)
		}
		lat := make([]time.Duration, n)
		syncs0 := reg.Counter("kv.syncs").Value()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := wall.Now()
		for i, key := range keys {
			t0 := wall.Now()
			txn := mgr.Begin(0)
			so := orders.Session(txn.ID())
			so.Insert("orders", key, map[string]string{"sku": "sku-1", "session": "s"})
			si := inventory.Session(txn.ID())
			si.Update("stock", "sku-1", map[string]string{"last": key})
			if err := txn.Enlist("orders", so); err != nil {
				panic(err)
			}
			if err := txn.Enlist("inventory", si); err != nil {
				panic(err)
			}
			if err := txn.Commit(); err != nil {
				panic(err)
			}
			lat[i] = wall.Since(t0)
		}
		elapsed = wall.Since(start)
		runtime.ReadMemStats(&after)
		mgr.Drain()
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return elapsed, lat[n/2], reg.Counter("kv.syncs").Value() - syncs0 + d.appends.Load(), after.Mallocs - before.Mallocs
	}
	elapsed, _, syncs, allocs := pass("fast-", commits, 0)
	_, median, _, _ := pass("slow-", slowCommits, floor)
	return checkoutResult{
		commits:         commits,
		perSec:          float64(commits) / elapsed.Seconds(),
		fsyncsPerCommit: float64(syncs) / commits,
		replyWaits:      float64(median) / float64(floor),
		allocsPerCommit: float64(allocs) / commits,
	}
}
