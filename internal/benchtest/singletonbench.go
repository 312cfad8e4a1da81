package benchtest

import (
	"context"
	"fmt"
	"time"

	"wls"
	"wls/internal/jms"
	"wls/internal/lease"
	"wls/internal/singleton"
	"wls/internal/store"
	"wls/internal/vclock"
)

func init() {
	register(Experiment{ID: "E16", Title: "Continuous singleton migration vs lease period",
		Source: "§3.4: grace period trades migration speed against split-brain margin", Run: runE16})
	register(Experiment{ID: "E17", Title: "Partitioned message queue availability",
		Source: "§3.4: messages continue to flow after an instance fails", Run: runE17})
	register(Experiment{ID: "E18", Title: "Aggregating singletons reduces bookkeeping",
		Source: "§3.4: aggregate into homes, partition the key space", Run: runE18})
}

// runE16: crash the owner and measure (virtual) unavailability for a sweep
// of lease periods, verifying single ownership throughout.
func runE16() *Table {
	t := &Table{ID: "E16", Title: "Singleton migration time vs lease TTL",
		Source:  "§3.4",
		Columns: []string{"lease_ttl", "downtime", "double_ownership"},
		Notes:   "downtime ≈ lease expiry + takeover retry; shorter grace periods migrate faster but shrink the completion margin for in-flight operations"}

	for _, ttl := range []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second} {
		c, err := wls.New(wls.Options{Servers: 2, WithAdmin: true, LeaseTTL: ttl})
		if err != nil {
			panic(err)
		}
		hosts := make([]*singleton.Host, 2)
		for i, s := range c.Servers {
			hosts[i] = s.SingletonHost(singleton.Config{
				Service:   "q",
				Preferred: []string{"server-1", "server-2"},
			}, singleton.Nop{})
			hosts[i].Start()
		}
		c.Settle(6)
		if !hosts[0].Active() {
			panic("owner did not activate")
		}

		clk := c.Clock().(*vclock.Virtual)
		crashAt := clk.Now()
		c.Crash("server-1")
		hosts[0].Stop()

		double := false
		var downtime time.Duration = -1
		for i := 0; i < 400; i++ {
			clk.Advance(25 * time.Millisecond)
			wall.Sleep(500 * time.Microsecond)
			if hosts[0].Active() && hosts[1].Active() {
				double = true
			}
			if hosts[1].Active() {
				downtime = clk.Since(crashAt)
				break
			}
		}
		t.AddRow(ttl, downtime.Round(time.Millisecond), double)
		hosts[1].Stop()
		c.Stop()
	}
	return t
}

// runE17: a queue hosted as one singleton vs partitioned into 3; one host
// fails; measure which producer keys keep flowing.
func runE17() *Table {
	t := &Table{ID: "E17", Title: "Partitioned destination availability",
		Source:  "§3.4",
		Columns: []string{"config", "producer_keys", "keys_flowing_during_outage", "accepted", "rejected"},
		Notes:   "the single queue stalls every producer while its host is down; with 3 partitions only ~1/3 of keys stall (those users are 'stalled until recovery occurs')"}

	const keys = 30
	for _, partitions := range []int{1, 3} {
		c, err := wls.New(wls.Options{Servers: 3, RealClock: true})
		if err != nil {
			panic(err)
		}
		c.Settle(2)
		pset := singleton.PartitionSet{Service: "orders", N: partitions,
			Candidates: []string{"server-1", "server-2", "server-3"}}

		// Partition i is hosted by candidate i mod n (static placement for
		// the measurement; migration is E16's subject).
		hostAddr := func(key string) string {
			p := pset.PartitionOf(key)
			return c.Servers[p%len(c.Servers)].Addr()
		}
		clientEp := c.Net().Endpoint(fmt.Sprintf("producer-%d:1", partitions))

		c.Crash("server-1") // the outage
		accepted, rejected := 0, 0
		flowing := map[string]bool{}
		for round := 0; round < 10; round++ {
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("user-%d", k)
				_, err := jms.SendRemote(context.Background(), clientEp, hostAddr(key),
					pset.PartitionService(pset.PartitionOf(key)), jms.Message{Key: key, Body: []byte("order")})
				if err != nil {
					rejected++
				} else {
					accepted++
					flowing[key] = true
				}
			}
		}
		label := "single-queue"
		if partitions > 1 {
			label = fmt.Sprintf("%d-partitions", partitions)
		}
		t.AddRow(label, keys, len(flowing), accepted, rejected)
		c.Stop()
	}
	return t
}

// runE18: activate 2000 user-profile singletons individually vs through 4
// aggregated homes partitioning the key space.
func runE18() *Table {
	t := &Table{ID: "E18", Title: "Per-key singletons vs aggregated homes",
		Source:  "§3.4",
		Columns: []string{"approach", "keys", "lease_acquisitions", "lease_table_rows", "elapsed"},
		Notes:   "aggregation replaces thousands of lease handshakes with a handful; the key space partitions across the homes so co-locality by user is kept"}

	const keyCount = 2000
	// Per-key on-demand singletons.
	{
		clk := vclock.NewVirtualAtZero()
		tbl := store.New("leasedb", clk)
		mgr := lease.NewManager(clk, lease.AlwaysLeader(), tbl, time.Hour)
		start := wall.Now()
		acquires := 0
		for i := 0; i < keyCount; i++ {
			if _, err := mgr.Acquire(fmt.Sprintf("od/profiles/user-%d", i), "server-1", lease.Pull); err != nil {
				panic(err)
			}
			acquires++
		}
		t.AddRow("per-key singletons", keyCount, acquires, len(tbl.Scan(lease.Table, nil)), wall.Since(start).Round(time.Millisecond))
	}
	// Aggregated homes.
	{
		clk := vclock.NewVirtualAtZero()
		tbl := store.New("leasedb", clk)
		mgr := lease.NewManager(clk, lease.AlwaysLeader(), tbl, time.Hour)
		pset := singleton.PartitionSet{Service: "profiles-home", N: 4,
			Candidates: []string{"server-1", "server-2"}}
		start := wall.Now()
		acquires := 0
		for i := 0; i < pset.N; i++ {
			if _, err := mgr.Acquire(pset.PartitionService(i), "server-1", lease.Pull); err != nil {
				panic(err)
			}
			acquires++
		}
		// Activating a key is now a local map operation in its home.
		homes := make([]map[string]bool, pset.N)
		for i := range homes {
			homes[i] = make(map[string]bool)
		}
		for i := 0; i < keyCount; i++ {
			key := fmt.Sprintf("user-%d", i)
			homes[pset.PartitionOf(key)][key] = true
		}
		t.AddRow("4 aggregated homes", keyCount, acquires, len(tbl.Scan(lease.Table, nil)), wall.Since(start).Round(time.Millisecond))
	}
	return t
}
