package benchtest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"wls"
	"wls/internal/core"
	"wls/internal/kv"
	"wls/internal/store"
	"wls/internal/tuple"
	"wls/internal/tx"
	"wls/internal/vclock"
)

func init() {
	register(Experiment{ID: "E22", Title: "Co-located message + conversation store eliminates 2PC",
		Source: "§5.1: co-location of this data can eliminate two-phase commit", Run: runE22})
	register(Experiment{ID: "E23", Title: "Booting from local config replicas",
		Source: "§5.1: servers start more rapidly and more autonomously", Run: runE23})
}

// mustOpenStore opens a middle-tier store laid out as a server's: tuple
// spaces over a WAL at path.
func mustOpenStore(path string, opts kv.Options) *tuple.Store {
	w, err := kv.OpenWAL(path, opts)
	if err != nil {
		panic(err)
	}
	st, err := tuple.New(w)
	if err != nil {
		panic(err)
	}
	return st
}

// runE22: a workflow step = consume a message + update conversational
// state, committed transactionally. Co-located: both writes ride one
// store session (one resource → 1PC). Separate: the message store and a
// database are two resources (2PC + a coordinator log).
func runE22() *Table {
	t := &Table{ID: "E22", Title: "1PC via co-location vs 2PC",
		Source:  "§5.1",
		Columns: []string{"layout", "tx/s", "fsyncs_per_tx", "tx_log_writes", "2pc_rounds"},
		Notes:   "the co-located layout commits each step with one durable append; the split layout pays prepare+commit on two resources plus coordinator-log forces"}

	const steps = 300
	dir, _ := os.MkdirTemp("", "e22")
	defer os.RemoveAll(dir)

	// Co-located: one store holds both the message space and the
	// conversation space.
	{
		// One registry per "server", as wls gives each: the store counts
		// into the transaction manager's.
		mgr := tx.NewManager("s1", vclock.System, nil, nil)
		reg := mgr.Metrics()
		st := mustOpenStore(filepath.Join(dir, "colocated.store"), kv.Options{SyncEveryCommit: true, Metrics: reg})
		// Preload the inbound messages.
		for i := 0; i < steps; i++ {
			if err := st.Put("jms.queue.in", fmt.Sprintf("m%06d", i), []byte("work")); err != nil {
				panic(err)
			}
		}
		syncs0 := reg.Counter("kv.syncs").Value()
		start := wall.Now()
		for i := 0; i < steps; i++ {
			txn := mgr.Begin(0)
			sess := st.Session()
			sess.Delete("jms.queue.in", fmt.Sprintf("m%06d", i)) // consume
			sess.Put("conversations", "wf-1", []byte(fmt.Sprintf("step-%d", i)))
			if err := txn.Enlist("store", sess); err != nil {
				panic(err)
			}
			if err := txn.Commit(); err != nil {
				panic(err)
			}
		}
		elapsed := wall.Since(start)
		syncs := reg.Counter("kv.syncs").Value() - syncs0
		t.AddRow("co-located (one store)",
			fmt.Sprintf("%.0f", float64(steps)/elapsed.Seconds()),
			fmt.Sprintf("%.1f", float64(syncs)/steps),
			0, mgr.Metrics().Counter("tx.2pc").Value())
		_ = st.Close()
	}

	// Separate: message store + database (table store) + durable
	// coordinator log.
	{
		tlog, err := tx.OpenFileLog(filepath.Join(dir, "tlog"), true)
		if err != nil {
			panic(err)
		}
		db := store.New("db", vclock.System)
		mgr := tx.NewManager("s1", vclock.System, tlog, nil)
		reg := mgr.Metrics()
		st := mustOpenStore(filepath.Join(dir, "msgs.store"), kv.Options{SyncEveryCommit: true, Metrics: reg})
		for i := 0; i < steps; i++ {
			if err := st.Put("jms.queue.in", fmt.Sprintf("m%06d", i), []byte("work")); err != nil {
				panic(err)
			}
		}
		syncs0 := reg.Counter("kv.syncs").Value()
		start := wall.Now()
		for i := 0; i < steps; i++ {
			txn := mgr.Begin(0)
			msgs := st.Session()
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
		syncs := reg.Counter("kv.syncs").Value() - syncs0
		recs, _ := tlog.Records()
		t.AddRow("separate (messages + DB)",
			fmt.Sprintf("%.0f", float64(steps)/elapsed.Seconds()),
			fmt.Sprintf("%.1f", float64(syncs)/steps),
			len(recs), mgr.Metrics().Counter("tx.2pc").Value())
		_ = tlog.Close()
		_ = st.Close()
	}
	return t
}

// runE23: 16 servers boot by fetching config from the admin server over a
// 2ms link vs reading a local store replica.
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
	c.Net().SetLatency(c.Servers[0].Addr(), c.Servers[1].Addr(), 2*time.Millisecond)
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
	st := mustOpenStore(filepath.Join(dir, "cfg.store"), kv.Options{})
	defer st.Close()
	for i := 0; i < servers; i++ {
		cfg, _ := d.ConfigOf(fmt.Sprintf("managed-%d", i))
		core.SaveLocalConfig(st, fmt.Sprintf("managed-%d", i), cfg)
	}
	start = wall.Now()
	for i := 0; i < servers; i++ {
		if _, err := core.BootFromLocal(st, fmt.Sprintf("managed-%d", i)); err != nil {
			panic(err)
		}
	}
	t.AddRow("local replica", servers, wall.Since(start).Round(time.Millisecond), false)
	return t
}
