package benchtest

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wls"
	"wls/internal/metrics"
	"wls/internal/partition"
	"wls/internal/rmi"
	"wls/internal/servlet"
)

func init() {
	register(Experiment{ID: "E33", Title: "Consistent-hash scale-out under closed-loop session load",
		Source: "§2.2 + §3.2: adding servers must grow capacity without losing sessions — the ring moves ≤2/N of the keys per join/leave and admission sheds the flash crowd", Run: runE33})
}

// e33Params sizes one E33 run; the full experiment uses a 32-server
// cluster, the in-tree smoke test a small one.
type e33Params struct {
	servers  int
	users    int           // closed-loop virtual-user population
	requests int           // steady-phase requests per user
	satTime  time.Duration // open-loop saturation-phase length
	satRate  float64       // base open-loop arrivals/s (flash crowd ×8)
	sample   int           // synthetic keys for movement estimation
}

func e33Full() e33Params {
	return e33Params{servers: 32, users: 256, requests: 16,
		satTime: 600 * time.Millisecond, satRate: 4000, sample: 100_000}
}

// e33Work is the simulated execute-thread time per servlet request.
const e33Work = 5 * time.Millisecond

// runE33 drives a consistent-hash-partitioned cluster through four phases:
// closed-loop steady state, a scale-out join (one server added live), a
// crash leave, and an open-loop flash-crowd saturation against Deny
// admission queues. The reproduction targets: no session counter ever
// restarts across the join/leave epoch changes (sessions survive
// rebalancing), both membership changes move at most 2/N of the keys, ring
// lookups stay allocation-free, and the flash crowd is shed at admission
// instead of collapsing latency.
func runE33() *Table { return e33Run(e33Full()) }

func e33Run(p e33Params) *Table {
	t := &Table{ID: "E33", Title: "Consistent-hash scale-out under closed-loop session load",
		Source: "§2.2 + §3.2",
		Columns: []string{"phase", "servers", "issued", "ok", "errors", "shed", "lost",
			"moved_frac", "bound_2/N", "accepted", "denied", "max_qdepth", "p99", "p999"},
	}

	// Ring-lookup allocation cost, measured on a standalone ring of the
	// final cluster size before any cluster goroutines add noise.
	allocs := e33RingAllocs(p.servers + 1)

	c, err := wls.New(wls.Options{
		Servers:   p.servers,
		RealClock: true,
		Seed:      1,
		Admission: &rmi.QueueConfig{Workers: 2, QueueLen: 8},
	})
	if err != nil {
		panic(err)
	}
	defer c.Stop()
	handler := func(r *servlet.Request) servlet.Response {
		n, _ := strconv.Atoi(r.Session.Get("n"))
		n++
		r.Session.Set("n", strconv.Itoa(n))
		wall.Sleep(e33Work)
		return servlet.Response{Status: 200, Body: []byte(strconv.Itoa(n))}
	}
	for _, s := range c.Servers {
		s.Web.Handle("/scale/count", handler)
	}
	c.Settle(3)
	proxy := c.ProxyPlugin("10.0.99.1:80")

	// Each closed-loop virtual user owns one session at a time; requests of
	// one user are serial, so the per-user slots need no locking. A counter
	// response that does not continue the expected sequence means the
	// session's state was lost.
	type userSlot struct {
		cookie string
		expect int
	}
	users := make([]userSlot, p.users)
	var lost atomic.Int64
	doCounted := func(op Op) error {
		u := &users[op.User]
		if op.SessionSeq == 0 {
			u.cookie, u.expect = "", 0
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		resp, err := proxy.Route(ctx, "/scale/count", u.cookie, nil)
		cancel()
		if err != nil {
			return err
		}
		n, convErr := strconv.Atoi(string(resp.Body))
		if convErr != nil || n != u.expect+1 {
			lost.Add(1)
		}
		u.expect = n
		if resp.Cookie != "" {
			u.cookie = resp.Cookie
		}
		return nil
	}

	queueTotals := func() (accepted, denied int64) {
		for _, s := range c.Servers {
			accepted += s.Metrics().Counter("queue.accepted").Value()
			denied += s.Metrics().Counter("queue.denied").Value()
		}
		return
	}

	// Phase 1 — closed-loop steady state: users ramp in on a Poisson
	// arrival process, think between requests, and roll sessions every 8
	// requests.
	rep := NewEngine(EngineConfig{
		Users:           p.users,
		Arrivals:        NewPoisson(7, float64(p.users)*8),
		Think:           NewServiceTime(3, 20*time.Millisecond, 1),
		SessionRequests: 8,
		Requests:        p.requests,
	}).Run(doCounted)
	t.AddRow("steady", p.servers, rep.Issued, rep.OK, rep.Errors, "-", lost.Load(),
		"-", "-", "-", "-", "-",
		fmtDuration(rep.Latency.P99()), fmtDuration(rep.Latency.P999()))

	// redrive issues one more request per live session and reports its
	// latency tail; counter continuity across the drive is the
	// sessions-survived-the-epoch-change measurement.
	redrive := func() *metrics.Histogram {
		hist := metrics.NewRegistry().Histogram("redrive")
		sem := make(chan struct{}, 64)
		var wg sync.WaitGroup
		for i := range users {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				t0 := wall.Now()
				if err := doCounted(Op{User: i, SessionSeq: 1}); err == nil {
					hist.Record(int64(wall.Since(t0)))
				}
			}(i)
		}
		wg.Wait()
		return hist
	}
	liveKeys := func() []string {
		keys := make([]string, 0, len(users))
		for i := range users {
			if ck, err := servlet.DecodeCookie(users[i].cookie); err == nil && ck.ID != "" {
				keys = append(keys, ck.ID)
			}
		}
		return keys
	}

	// Phase 2 — join: one server added to the live cluster. The ring may
	// move at most 2/N of the keys (owner or secondary now on the new
	// server); every session must continue its counter afterwards.
	before := lost.Load()
	oldRing := c.Servers[0].Partitions().Current().Ring
	keys := liveKeys()
	joined, err := c.AddServer()
	if err != nil {
		panic(err)
	}
	joinedMembers := joined.Partitions().Current().Ring.Len()
	joined.Web.Handle("/scale/count", handler)
	c.Settle(5)
	newRing := c.Servers[0].Partitions().Current().Ring
	moves := movedKeys(oldRing, newRing, keys)
	hist := redrive()
	t.AddRow("join +1", newRing.Len(), len(users), hist.Count(), len(users)-int(hist.Count()), "-",
		lost.Load()-before,
		fmt.Sprintf("%.4f (live %d/%d)", movedFraction(oldRing, newRing, p.sample), moves, len(keys)),
		fmt.Sprintf("%.4f", 2/float64(newRing.Len())),
		"-", "-", "-", fmtDuration(hist.P99()), fmtDuration(hist.P999()))

	// Phase 3 — leave: crash a primary-holding server. Failover promotes
	// the cookie secondary (Fig 3) and the ring heals around the hole; a
	// single failure may not lose any replicated session.
	before = lost.Load()
	oldRing = newRing
	keys = liveKeys()
	c.Crash(c.Servers[1].Name)
	c.Settle(6)
	newRing = c.Servers[0].Partitions().Current().Ring
	moves = movedKeys(oldRing, newRing, keys)
	hist = redrive()
	t.AddRow("leave -1", newRing.Len(), len(users), hist.Count(), len(users)-int(hist.Count()), "-",
		lost.Load()-before,
		fmt.Sprintf("%.4f (live %d/%d)", movedFraction(oldRing, newRing, p.sample), moves, len(keys)),
		fmt.Sprintf("%.4f", 2/float64(newRing.Len())),
		"-", "-", "-", fmtDuration(hist.P99()), fmtDuration(hist.P999()))

	// Phase 4 — saturation: an open-loop flash crowd of fresh visitors at
	// 8x the base rate, against the Deny execute queues. The excess is
	// refused at admission (denied) or at the client cap (shed); the p99 of
	// what is served must not inflate by the queueing of the whole crowd.
	acc0, den0 := queueTotals()
	maxDepth := e33DepthSampler(c)
	satDo := func(Op) error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err := proxy.Route(ctx, "/scale/count", "", nil)
		cancel()
		return err
	}
	sat := NewEngine(EngineConfig{
		Users:    p.users,
		OpenLoop: true,
		Arrivals: &FlashCrowd{
			Base:   NewPoisson(11, p.satRate),
			Start:  p.satTime / 4,
			Width:  p.satTime / 2,
			Factor: 8,
		},
		Duration:    p.satTime,
		MaxInFlight: 512,
	}).Run(satDo)
	depth := maxDepth()
	acc1, den1 := queueTotals()
	t.AddRow("saturate", newRing.Len(), sat.Issued, sat.OK, sat.Errors, sat.Shed, "-",
		"-", "-", acc1-acc0, den1-den0, depth,
		fmtDuration(sat.Latency.P99()), fmtDuration(sat.Latency.P999()))

	t.Notes = fmt.Sprintf("ring lookup: %.2f allocs/op on a %d-member ring. "+
		"lost counts counter discontinuities: the join and leave rows must show 0 (sessions survive the "+
		"rebalance epoch change), moved_frac must stay under bound_2/N, and the saturate row should refuse "+
		"its excess as denied/shed while the served p99 stays near the steady tail. "+
		"membership: the joiner's first ring already held %d members (the heartbeats a join costs are "+
		"pinned by TestJoinConvergesWithoutAdvance).",
		allocs, p.servers+1, joinedMembers)
	return t
}

// e33RingAllocs measures the per-lookup heap cost of walking a key's
// replica pair on a standalone ring, as secondary placement does
// (TestRingLookupZeroAlloc pins the ring's lookups at 0).
func e33RingAllocs(n int) float64 {
	members := make([]string, n)
	for i := range members {
		members[i] = fmt.Sprintf("server-%d", i+1)
	}
	r := partition.New(partition.Config{Seed: 1}, members)
	const iters = 100_000
	keys := make([]string, 1024) // pre-built so only the lookups are measured
	for i := range keys {
		keys[i] = "session-" + strconv.Itoa(i)
	}
	lookup := func(i int) {
		n := 0
		r.Walk(keys[i%len(keys)], func(string) bool { n++; return n < 2 })
	}
	for i := 0; i < 1000; i++ {
		lookup(i) // warm up (stack growth)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		lookup(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / iters
}

// e33DepthSampler samples the summed execute-queue backlog until the
// returned stop function is called; it reports the maximum seen.
func e33DepthSampler(c *wls.Cluster) (stop func() int) {
	done := make(chan struct{})
	var max int64
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			total := 0
			for _, s := range c.Servers {
				total += int(s.Metrics().Gauge("queue.depth").Value())
			}
			if int64(total) > atomic.LoadInt64(&max) {
				atomic.StoreInt64(&max, int64(total))
			}
			//wls:wallclock sampling cadence of a live wall-clock run
			time.Sleep(2 * time.Millisecond)
		}
	}()
	return func() int {
		close(done)
		return int(atomic.LoadInt64(&max))
	}
}

func fmtDuration(ns int64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// ringOwner is the first member of key's walk: the server that owns it.
func ringOwner(r *partition.Ring, key string) (o string) {
	r.Walk(key, func(m string) bool { o = m; return false })
	return o
}

// movedKeys counts the keys whose owner differs between two rings.
func movedKeys(old, new *partition.Ring, keys []string) int {
	n := 0
	for _, k := range keys {
		if ringOwner(old, k) != ringOwner(new, k) {
			n++
		}
	}
	return n
}

// movedFraction is the share of sample synthetic keys whose owner differs
// between two rings. For a join of one server into N it is ≈ 1/(N+1); the
// E33 bound is ≤ 2/N.
func movedFraction(old, new *partition.Ring, sample int) float64 {
	keys := make([]string, sample)
	for i := range keys {
		keys[i] = "key-" + strconv.Itoa(i)
	}
	return float64(movedKeys(old, new, keys)) / float64(sample)
}
