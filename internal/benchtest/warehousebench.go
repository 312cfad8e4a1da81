package benchtest

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wls/internal/metrics"
	"wls/internal/store"
	"wls/internal/vclock"
	"wls/internal/warehouse"
)

func init() {
	register(Experiment{ID: "E24", Title: "Warehouse-style middle-tier copy (Fig 5)",
		Source: "§5.2: isolate the operational system; optimistic fulfilment", Run: runE24})
	register(Experiment{ID: "E25", Title: "Admission control: deny vs degrade vs self-tuning",
		Source: "§2.3: TP monitors deny; application servers must self-tune", Run: runE25})
}

// runE24 part 1: a local OLTP loop on the operational store while a remote
// read surge hits either the operational store directly or a middle-tier
// copy; part 2: fulfilment correctness against a stale copy.
func runE24() *Table {
	t := &Table{ID: "E24", Title: "Operational isolation via a middle-tier copy",
		Source:  "Fig 5 + §5.2",
		Columns: []string{"metric", "direct-to-operational", "via-middle-tier-copy"},
		Notes:   "routing the remote surge at the copy keeps the operational tier's latency flat; fulfilment stays exactly-right despite copy staleness (optimistic critical step)"}

	runSurge := func(useCopy bool) (localP99 time.Duration, surgeReads int64) {
		op := store.New("operational", vclock.System)
		const rows = 50
		for i := 0; i < rows; i++ {
			op.Put("flights", fmt.Sprintf("f%03d", i), map[string]string{"seats": "100"})
		}
		copyDB := store.New("copy", vclock.System)
		etl := warehouse.NewETL(op, copyDB, vclock.System, 50*time.Millisecond, nil, "flights")
		etl.InitialLoad("flights")
		etl.Start()
		defer etl.Stop()

		target := op
		if useCopy {
			target = copyDB
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var reads atomic.Int64
		for g := 0; g < 4; g++ { // the remote surge
			wg.Add(1)
			go func() {
				defer wg.Done()
				keys := NewZipf(int64(g)+1, rows, 1.2)
				for {
					select {
					case <-stop:
						return
					default:
					}
					target.Scan("flights", func(r store.Row) bool { return r.Key == keys.Next() })
					reads.Add(1)
				}
			}()
		}

		// The local OLTP loop whose latency we protect.
		var hist metrics.Histogram
		for i := 0; i < 60; i++ {
			t0 := wall.Now()
			key := fmt.Sprintf("f%03d", i%rows)
			row, _ := op.Get("flights", key)
			sess := op.Session(fmt.Sprintf("oltp-%d", i))
			sess.UpdateVersioned("flights", key, row.Version, row.Fields)
			if err := sess.Commit(""); err != nil {
				panic(err)
			}
			hist.Record(int64(wall.Since(t0)))
			wall.Sleep(200 * time.Microsecond)
		}
		close(stop)
		wg.Wait()
		return time.Duration(hist.P99()), reads.Load()
	}

	directP99, directReads := runSurge(false)
	copyP99, copyReads := runSurge(true)
	t.AddRow("local OLTP p99", directP99.Round(10*time.Microsecond), copyP99.Round(10*time.Microsecond))
	t.AddRow("remote reads served", directReads, copyReads)

	// Part 2: fulfilment correctness with a stale copy.
	op := store.New("operational", vclock.System)
	op.Put("flights", "f1", map[string]string{"seats": "25"})
	copyDB := store.New("copy", vclock.System)
	etl := warehouse.NewETL(op, copyDB, vclock.System, time.Hour, nil, "flights") // never refresh: maximally stale
	etl.InitialLoad("flights")
	var sold, soldOut atomic.Int64
	Clients(10, 5, func(cID, i int) {
		// Best-effort phase against the copy...
		copyDB.Get("flights", "f1")
		// ...critical step against the operational store.
		err := warehouse.FulfillWithRetry(op, "flights", "f1", "seats", 1,
			fmt.Sprintf("c%d-%d", cID, i), 100)
		if err == nil {
			sold.Add(1)
		} else if errors.Is(err, warehouse.ErrSoldOut) {
			soldOut.Add(1)
		}
	})
	row, _ := op.Get("flights", "f1")
	t.AddRow("seats sold (25 available, 50 wanted)", "-", fmt.Sprintf("%d sold, %d sold-out, %s left",
		sold.Load(), soldOut.Load(), row.Fields["seats"]))
	return t
}

// runE25 lives in admissionbench.go.
