package benchtest

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wls/internal/metrics"
	"wls/internal/rmi"
	"wls/internal/vclock"
)

// runE25: an open-loop burst hits a small execute queue under three
// configurations; each arrival is admitted on its own goroutine, as the
// registry admits a request on the goroutine that delivered it.
func runE25() *Table {
	t := &Table{ID: "E25", Title: "Admission under a peak load",
		Source:  "§2.3",
		Columns: []string{"config", "offered", "completed", "accepted", "denied", "p99_sojourn", "final_limit"},
		Notes:   "deny keeps latency flat by shedding the peak (the TP-monitor policy); degrade completes everything at high tail latency; self-tuning raises the concurrency limit and completes everything with a moderate tail. accepted/denied are the queue's own counters (queue.accepted / queue.denied)"}

	const (
		offered = 400
		svcTime = 5 * time.Millisecond
	)
	type cfg struct {
		name string
		q    rmi.QueueConfig
	}
	for _, c := range []cfg{
		{"fixed+deny", rmi.QueueConfig{Workers: 4, QueueLen: 8}},
		// A line that holds every arrival: nothing is denied, and
		// overload turns into time in line.
		{"fixed+degrade", rmi.QueueConfig{Workers: 4, QueueLen: offered}},
		{"self-tuning", rmi.QueueConfig{Workers: 4, QueueLen: offered, SelfTuning: true}},
	} {
		reg := metrics.NewRegistry()
		g := rmi.NewGate(c.q, vclock.System, reg)
		var hist metrics.Histogram
		var wg sync.WaitGroup
		var denied atomic.Int64
		for i := 0; i < offered; i++ {
			arrived := wall.Now()
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := g.Admit(rmi.Budget{}); err != nil {
					if errors.Is(err, rmi.ErrDenied) {
						denied.Add(1)
					}
					return
				}
				wall.Sleep(svcTime)
				g.Done()
				hist.Record(int64(wall.Since(arrived)))
			}()
			// Open loop: ~5000/s offered vs 800/s fixed-limit capacity.
			wall.Sleep(200 * time.Microsecond)
		}
		wg.Wait()
		// The tuner lowers the limit one step per idle interval: give it
		// those intervals, up to a second, before reading where the limit
		// ended.
		// The limit moves one step per queue.grown or queue.shrunk.
		limit := func() int {
			return c.q.Workers + int(reg.Counter("queue.grown").Value()-reg.Counter("queue.shrunk").Value())
		}
		for deadline := wall.Now().Add(time.Second); limit() > c.q.Workers && wall.Now().Before(deadline); {
			wall.Sleep(time.Millisecond)
		}
		if got := reg.Counter("queue.denied").Value(); got != denied.Load() {
			panic(fmt.Sprintf("E25 %s: queue.denied counter %d != %d observed denials", c.name, got, denied.Load()))
		}
		t.AddRow(c.name, offered, hist.Count(),
			reg.Counter("queue.accepted").Value(), reg.Counter("queue.denied").Value(),
			time.Duration(hist.P99()).Round(100*time.Microsecond), limit())
		g.Close()
	}
	return t
}
