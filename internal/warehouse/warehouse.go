// Package warehouse implements §5.2: giving widely-distributed
// applications "their own copy of backend data in the manner of a data
// warehouse", so the operational system is isolated "from the load- and
// error-handling requirements of widely-distributed applications".
//
// Pieces of Figure 5:
//
//   - ETL: extraction from the operational store (via its change log — the
//     same log-sniffing machinery §3.3 describes), transformation ("the
//     extraction, transformation, and loading process can optimize the
//     data for the needs of these applications. For example, relational
//     data might be pre-digested into object or XML form to avoid runtime
//     mapping"), and loading into the middle-tier copy.
//   - Fulfillment: the airline-reservation / shopping-cart pattern —
//     best-effort operations against the (possibly stale) copy leading to
//     "a single critical fulfilment step which may fail", implemented with
//     optimistic concurrency against the operational store.
package warehouse

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"wls/internal/metrics"
	"wls/internal/store"
	"wls/internal/vclock"
)

// Transform converts one operational row into its middle-tier form. It
// returns the destination table, the (pre-digested) fields, and false to
// filter the row out.
type Transform func(table string, row store.Row) (dstTable string, fields map[string]string, ok bool)

// IdentityTransform copies rows unchanged.
func IdentityTransform(table string, row store.Row) (string, map[string]string, bool) {
	return table, row.Fields, true
}

// ETL incrementally propagates committed operational changes to a
// middle-tier copy.
type ETL struct {
	src       *store.Store
	dst       *store.Store
	interval  time.Duration
	transform Transform
	tables    map[string]bool // nil = all tables
	runs      *vclock.Loop    // RunOnce every interval

	loaded, applied, resyncs *metrics.Counter

	// mu guards the extraction cursor; each tick reads the source
	// store's LSN while holding it.
	//
	//wls:lockorder warehouse.ETL.mu<store.Store.mu
	mu       sync.Mutex
	sinceLSN uint64
}

// NewETL creates an incremental ETL pipeline. tables limits extraction
// (nil = everything). transform defaults to IdentityTransform.
func NewETL(src, dst *store.Store, clock vclock.Clock, interval time.Duration, transform Transform, tables ...string) *ETL {
	if transform == nil {
		transform = IdentityTransform
	}
	var filter map[string]bool
	if len(tables) > 0 {
		filter = make(map[string]bool, len(tables))
		for _, t := range tables {
			filter[t] = true
		}
	}
	reg := metrics.NewRegistry()
	e := &ETL{
		src:       src,
		dst:       dst,
		interval:  interval,
		transform: transform,
		tables:    filter,
		loaded:    reg.Counter("etl.loaded"),
		applied:   reg.Counter("etl.applied"),
		resyncs:   reg.Counter("etl.resyncs"),
	}
	e.runs = vclock.NewLoop(clock, e.run, false)
	return e
}

// InitialLoad copies every current row of the configured tables and sets
// the change-log checkpoint, so incremental runs pick up from here.
func (e *ETL) InitialLoad(tables ...string) int {
	e.mu.Lock()
	e.sinceLSN = e.src.LastLSN()
	e.mu.Unlock()
	n := 0
	for _, table := range tables {
		for _, row := range e.src.Scan(table, nil) {
			if dstTable, fields, ok := e.transform(table, row); ok {
				e.dst.Put(dstTable, row.Key, fields)
				n++
			}
		}
	}
	e.loaded.Add(int64(n))
	return n
}

// RunOnce propagates all changes since the checkpoint. It returns how many
// changes were applied.
func (e *ETL) RunOnce() int {
	e.mu.Lock()
	since := e.sinceLSN
	e.mu.Unlock()
	changes, err := e.src.Changes(since)
	if err != nil {
		// The checkpoint fell out of the store's bounded change log (store
		// restart, or the ETL paused too long): incremental catch-up is
		// impossible, so resynchronize with a full scan from the current
		// LSN. Rows deleted inside the trimmed window are not reconciled —
		// the standard snapshot-plus-changelog tradeoff.
		return e.resync()
	}
	applied := 0
	for _, ch := range changes {
		if e.tables != nil && !e.tables[ch.Table] {
			continue
		}
		switch ch.Op {
		case store.OpPut:
			row, ok := e.src.Get(ch.Table, ch.Key)
			if !ok {
				continue // deleted again later in the log; the delete entry will handle it
			}
			if dstTable, fields, ok := e.transform(ch.Table, row); ok {
				e.dst.Put(dstTable, ch.Key, fields)
				applied++
			}
		case store.OpDelete:
			if dstTable, _, ok := e.transform(ch.Table, store.Row{Key: ch.Key, Fields: map[string]string{}}); ok {
				e.dst.Delete(dstTable, ch.Key)
				applied++
			}
		}
	}
	if len(changes) > 0 {
		e.mu.Lock()
		e.sinceLSN = changes[len(changes)-1].LSN
		e.mu.Unlock()
	}
	e.applied.Add(int64(applied))
	return applied
}

// resync recovers from a trimmed change log: re-scan the configured
// tables (or every table) from the current LSN forward.
func (e *ETL) resync() int {
	e.mu.Lock()
	e.sinceLSN = e.src.LastLSN()
	e.mu.Unlock()
	var tables []string
	if e.tables != nil {
		for t := range e.tables {
			tables = append(tables, t)
		}
	} else {
		tables = e.src.Tables()
	}
	n := 0
	for _, table := range tables {
		for _, row := range e.src.Scan(table, nil) {
			if dstTable, fields, ok := e.transform(table, row); ok {
				e.dst.Put(dstTable, row.Key, fields)
				n++
			}
		}
	}
	e.resyncs.Inc()
	e.loaded.Add(int64(n))
	return n
}

// Lag reports how many committed operational changes are not yet loaded —
// the staleness of the middle-tier copy. LSNs are dense, so the lag is
// exactly the LSN distance (this also holds when the change log itself
// has been trimmed).
func (e *ETL) Lag() int {
	e.mu.Lock()
	since := e.sinceLSN
	e.mu.Unlock()
	last := e.src.LastLSN()
	if last <= since {
		return 0
	}
	return int(last - since)
}

// Start runs RunOnce on the configured interval.
func (e *ETL) Start() { e.runs.Start(e.interval) }

// Stop halts periodic runs.
func (e *ETL) Stop() { e.runs.Stop() }

func (e *ETL) run(uint64) time.Duration {
	e.RunOnce()
	return e.interval
}

// ---------------------------------------------------------------------------
// The critical fulfilment step

// Fulfilment errors.
var (
	// ErrSoldOut means the critical step failed because the resource is
	// exhausted — the business outcome the best-effort phase could not
	// have guaranteed against.
	ErrSoldOut = errors.New("warehouse: sold out")
	// ErrConflict re-exports the optimistic failure for callers to retry.
	ErrConflict = store.ErrConflict
)

// TryFulfill performs the single critical fulfilment step against the
// operational store: decrement a numeric field by amount, optimistically
// conditioned on the value observed — "optimistic concurrency techniques
// are ideal here". On ErrConflict the caller may re-read and retry; on
// ErrSoldOut the business process fails cleanly.
func TryFulfill(operational *store.Store, table, key, field string, amount int, txID string) error {
	row, ok := operational.Get(table, key)
	if !ok {
		return fmt.Errorf("warehouse: %s/%s: %w", table, key, store.ErrNotFound)
	}
	have, err := strconv.Atoi(row.Fields[field])
	if err != nil {
		return fmt.Errorf("warehouse: %s/%s.%s is not numeric: %v", table, key, field, err)
	}
	if have < amount {
		return fmt.Errorf("%w: %s/%s has %d, want %d", ErrSoldOut, table, key, have, amount)
	}
	fields := map[string]string{}
	for k, v := range row.Fields {
		fields[k] = v
	}
	fields[field] = strconv.Itoa(have - amount)
	sess := operational.Session(txID)
	sess.UpdateVersioned(table, key, row.Version, fields)
	return sess.Commit(txID)
}

// FulfillWithRetry retries TryFulfill through optimistic conflicts up to
// maxRetries times. ErrSoldOut is terminal.
func FulfillWithRetry(operational *store.Store, table, key, field string, amount int, txPrefix string, maxRetries int) error {
	var err error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		err = TryFulfill(operational, table, key, field, amount, fmt.Sprintf("%s-%d", txPrefix, attempt))
		if err == nil || errors.Is(err, ErrSoldOut) || errors.Is(err, store.ErrNotFound) {
			return err
		}
		if !errors.Is(err, store.ErrConflict) {
			return err
		}
	}
	return err
}
