package benchtest

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"wls"
	"wls/internal/cluster"
	"wls/internal/ejb"
	"wls/internal/metrics"
	"wls/internal/partition"
	"wls/internal/rmi"
	"wls/internal/servlet"
	"wls/internal/webtier"
)

func init() {
	register(Experiment{ID: "E06", Title: "In-memory session replication with web-server routing (Fig 2)",
		Source: "§3.2 + Fig 2", Run: runE06})
	register(Experiment{ID: "E07", Title: "In-memory session replication with external routing (Fig 3)",
		Source: "§3.2 + Fig 3", Run: runE07})
	register(Experiment{ID: "E08", Title: "Delta on transaction boundary vs delta per update",
		Source: "§3.2: customers prefer tx-boundary deltas despite the rollback anomaly", Run: runE08})
	register(Experiment{ID: "E09", Title: "Ring placement of secondaries",
		Source: "§3.2: preferred replication group on a different machine", Run: runE09})
}

// countServlet increments a session counter.
// pinFirst orders the named server first (deterministic primaries).
type pinFirst string

func (p pinFirst) Order(_ context.Context, _ string, cands []cluster.MemberInfo) []cluster.MemberInfo {
	out := make([]cluster.MemberInfo, 0, len(cands))
	for _, c := range cands {
		if c.Name == string(p) {
			out = append(out, c)
		}
	}
	for _, c := range cands {
		if c.Name != string(p) {
			out = append(out, c)
		}
	}
	return out
}

func countServlet(r *servlet.Request) servlet.Response {
	n, _ := strconv.Atoi(r.Session.Get("n"))
	n++
	r.Session.Set("n", strconv.Itoa(n))
	return servlet.Response{Body: []byte(strconv.Itoa(n))}
}

// sessionCluster builds engines on every server.
func sessionCluster(servers int) *wls.Cluster {
	c, err := wls.New(wls.Options{Servers: servers, RealClock: true})
	if err != nil {
		panic(err)
	}
	for _, s := range c.Servers {
		s.Web.Handle("/cart", countServlet)
	}
	c.Settle(3)
	return c
}

// runE06: sessions through the Fig 2 proxy plug-in; kill primaries
// mid-session and measure continuity and failover cost.
func runE06() *Table {
	t := &Table{ID: "E06", Title: "Fig 2: plug-in routing failover",
		Source:  "§3.2",
		Columns: []string{"phase", "requests", "state_preserved", "failover_latency"},
		Notes:   "after the primary dies, the plug-in routes to the secondary named in the cookie; the session continues with no lost updates and one promotion"}

	c := sessionCluster(3)
	defer c.Stop()
	proxy := c.ProxyPlugin("web:80")
	ctx := context.Background()

	// Steady state.
	var steady metrics.Histogram
	resp, err := proxy.Route(ctx, "/cart", "", nil)
	if err != nil {
		panic(err)
	}
	cookie := resp.Cookie
	const warm = 50
	for i := 2; i <= warm; i++ {
		t0 := wall.Now()
		resp, err = proxy.Route(ctx, "/cart", cookie, nil)
		if err != nil {
			panic(err)
		}
		steady.Record(int64(wall.Since(t0)))
		if resp.Cookie != "" {
			cookie = resp.Cookie
		}
	}
	t.AddRow("steady", warm, "yes", time.Duration(steady.Mean()).Round(time.Microsecond))

	// Failover: crash the primary, next request promotes the secondary.
	ck, _ := servlet.DecodeCookie(cookie)
	c.Crash(ck.Primary)
	t0 := wall.Now()
	resp, err = proxy.Route(ctx, "/cart", cookie, nil)
	failoverLatency := wall.Since(t0)
	if err != nil {
		panic(err)
	}
	preserved := string(resp.Body) == strconv.Itoa(warm+1)
	t.AddRow("failover", 1, fmt.Sprint(preserved), failoverLatency.Round(time.Microsecond))

	// Post-failover steady state on the new pair.
	if resp.Cookie != "" {
		cookie = resp.Cookie
	}
	var after metrics.Histogram
	for i := 0; i < 20; i++ {
		t1 := wall.Now()
		resp, err = proxy.Route(ctx, "/cart", cookie, nil)
		if err != nil {
			panic(err)
		}
		after.Record(int64(wall.Since(t1)))
		if resp.Cookie != "" {
			cookie = resp.Cookie
		}
	}
	t.AddRow("post-failover", 20, "yes", time.Duration(after.Mean()).Round(time.Microsecond))
	return t
}

// runE07: the same workload through the Fig 3 external appliance.
func runE07() *Table {
	t := &Table{ID: "E07", Title: "Fig 3: external-routing failover",
		Source:  "§3.2",
		Columns: []string{"phase", "state_preserved", "recovered_via", "secondary_unchanged"},
		Notes:   "affinity switches to an arbitrary server, which fetches state from the secondary named in the cookie and leaves the secondary in place"}

	c := sessionCluster(3)
	defer c.Stop()
	lb := webtier.NewExternalLB(c.Net().Endpoint("appliance:80"), rmi.MemberView{Member: c.Servers[0].Member()}, nil)
	ctx := context.Background()

	resp, err := lb.Route(ctx, "client-1", "/cart", "", nil)
	if err != nil {
		panic(err)
	}
	cookie := resp.Cookie
	for i := 0; i < 10; i++ {
		resp, err = lb.Route(ctx, "client-1", "/cart", cookie, nil)
		if err != nil {
			panic(err)
		}
		if resp.Cookie != "" {
			cookie = resp.Cookie
		}
	}
	before, _ := servlet.DecodeCookie(cookie)
	c.Crash(before.Primary)

	resp, err = lb.Route(ctx, "client-1", "/cart", cookie, nil)
	if err != nil {
		panic(err)
	}
	after, _ := servlet.DecodeCookie(resp.Cookie)
	preserved := string(resp.Body) == "12"
	via := "promotion-on-secondary"
	if after.Primary != before.Secondary {
		via = "fetch-from-secondary"
	}
	t.AddRow("failover", fmt.Sprint(preserved), via,
		fmt.Sprint(after.Secondary == before.Secondary || after.Primary == before.Secondary))
	return t
}

// runE08: stateful session beans under the two delta policies: throughput
// ratio and the rollback anomaly.
func runE08() *Table {
	t := &Table{ID: "E08", Title: "Replication delta policies",
		Source:  "§3.2",
		Columns: []string{"policy", "updates/s", "replica_msgs", "rollback_anomaly"},
		Notes:   "per-update ships ~Nx more replica traffic for N updates per method; per-tx risks rolling back to the last boundary on failover — the trade customers accept"}

	for _, policy := range []ejb.DeltaPolicy{ejb.DeltaPerTx, ejb.DeltaPerUpdate} {
		c, err := wls.New(wls.Options{Servers: 3, RealClock: true})
		if err != nil {
			panic(err)
		}
		var home *ejb.StatefulHome
		for _, s := range c.Servers {
			h := s.EJB.DeployStateful(ejb.StatefulSpec{
				Name:   "Cart",
				Deltas: policy,
				Methods: map[string]ejb.StatefulMethod{
					// Each call makes 4 updates: per-update ships 4 deltas,
					// per-tx ships 1.
					"add": func(sc *ejb.StatefulCtx, args []byte) ([]byte, error) {
						n, _ := strconv.Atoi(sc.Get("count"))
						sc.Set("count", strconv.Itoa(n+1))
						sc.Set("a", string(args))
						sc.Set("b", string(args))
						sc.Set("c", string(args))
						return []byte(strconv.Itoa(n + 1)), nil
					},
					"count": func(sc *ejb.StatefulCtx, args []byte) ([]byte, error) {
						return []byte(sc.Get("count")), nil
					},
				},
			})
			if home == nil {
				home = h
			}
		}
		c.Settle(2)

		// Pin the primary to server-2: the client runs on server-1, so the
		// anomaly check can crash the primary without killing the client.
		h, err := home.Create(context.Background(), rmi.WithPolicy(pinFirst("server-2")))
		if err != nil {
			panic(err)
		}
		const calls = 200
		start := wall.Now()
		for i := 0; i < calls; i++ {
			if _, err := h.Invoke(context.Background(), "add", []byte("x")); err != nil {
				panic(err)
			}
		}
		elapsed := wall.Since(start)
		var replicaMsgs int64
		for _, s := range c.Servers {
			replicaMsgs += s.Metrics().Counter("ejb.stateful.replica_updates").Value()
		}

		// Anomaly check: drop one delta ship, crash the primary, observe
		// the count rolled back one boundary (per-tx) or not (per-update
		// loses only the final Set).
		c.Server(h.Primary()).EJB.StatefulStore("Cart").DropNextShips(5)
		h.Invoke(context.Background(), "add", []byte("y"))
		c.Crash(h.Primary())
		out, err := h.Invoke(context.Background(), "count", nil)
		anomaly := "no"
		if err != nil {
			anomaly = "failover failed: " + err.Error()
		} else if string(out) != strconv.Itoa(calls+1) {
			anomaly = fmt.Sprintf("yes (count %s after %d adds)", out, calls+1)
		}

		name := "delta-per-tx"
		if policy == ejb.DeltaPerUpdate {
			name = "delta-per-update"
		}
		t.AddRow(name, fmt.Sprintf("%.0f", float64(calls)/elapsed.Seconds()), replicaMsgs, anomaly)
		c.Stop()
	}
	return t
}

// runE09 places one secondary in each of 2000 random cluster
// configurations with the picker the servers run (cluster.Picker), fed a
// seeded ring's walk of a session key. TestE09RingPlacement checks the same
// property.
func runE09() *Table {
	t := &Table{ID: "E09", Title: "Ring placement of secondaries",
		Source:  "§3.2",
		Columns: []string{"order", "configs", "placed", "in_preferred_group", "crossed_machines", "violations"},
		Notes: "a secondary lands on its primary's machine only when no other machine has a candidate, " +
			"and the most-preferred satisfiable group always wins (violations must be 0)"}

	const trials = 2000
	groups := []string{"gA", "gB", "gC"}
	seed := int64(12345)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		v := int(seed>>33) % n
		if v < 0 {
			v = -v
		}
		return v
	}
	placed, inGroup, crossed, violations := 0, 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		n := 2 + next(10)
		cands := make([]cluster.MemberInfo, n)
		names := make([]string, n)
		for i := range cands {
			names[i] = fmt.Sprintf("s%02d", i)
			cands[i] = cluster.MemberInfo{Name: names[i], Machine: fmt.Sprintf("m%d", next(4)), ReplicationGroup: groups[next(3)]}
		}
		self := cands[next(n)]
		self.PreferredSecondaryGroups = groups[:next(4)]
		pick := cluster.NewPicker(self, cands, "")
		partition.New(partition.Config{Seed: int64(trial)}, names).Walk(self.Name+"-sess-"+strconv.Itoa(trial), pick.Offer)
		var sec cluster.MemberInfo
		for _, c := range cands {
			if c.Name == pick.Pick() {
				sec = c
			}
		}
		if sec.Name == "" || sec.Name == self.Name {
			violations++
			continue
		}
		placed++
		otherMachine := func(group string) bool {
			for _, c := range cands {
				if c.Machine != self.Machine && (group == "" || c.ReplicationGroup == group) {
					return true
				}
			}
			return false
		}
		if sec.Machine != self.Machine {
			crossed++
		} else if otherMachine("") {
			violations++
		}
		for _, g := range self.PreferredSecondaryGroups {
			if otherMachine(g) {
				if sec.ReplicationGroup == g && sec.Machine != self.Machine {
					inGroup++
				} else {
					violations++
				}
				break
			}
		}
	}
	t.AddRow("ring", trials, placed, inGroup, crossed, violations)
	return t
}
