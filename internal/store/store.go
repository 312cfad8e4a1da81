// Package store is the backend database substrate standing in for the
// relational databases behind the paper's persistence tier. It implements
// exactly the mechanisms §3.3 discusses:
//
//   - versioned rows, so optimistic concurrency can be enforced "using an
//     additional WHERE clause in the UPDATE statement" — expected versions
//     or expected field values are validated at prepare time;
//   - pessimistic row locks held to transaction end, for the lock-based
//     consistency option (benchmark E12 compares the two);
//   - triggers and an LSN-ordered change log, the two mechanisms the paper
//     names for detecting "backdoor" updates (triggers vs log-sniffing);
//   - transactional sessions that participate in two-phase commit through
//     the tx.Resource interface;
//   - disconnected RowSets (rowset.go) that serialize to binary or XML,
//     travel to a client, and come back as optimistic submits.
//
// The store is deliberately navigational (get/put/scan by key) rather than
// SQL: §5.1 observes that middle-tier data "is accessed only in limited
// ways, e.g., by key or through a sequential scan".
//
// Since the persistence refactor the table semantics sit on the layered
// stack: rows, tombstones, the persisted LSN and durably-prepared
// transaction votes are tuple-space records (wls/internal/tuple) over a
// pluggable kv backend (wls/internal/kv) — in-memory or WAL. New opens an
// in-memory store exactly as before; Open layers the same semantics over
// any backend, whose records are the rows, and recovers the LSN
// high-water mark and in-doubt transactions from it.
// Every commit — autocommit or transactional — reaches the backend as ONE
// atomic batch (row records + LSN + staged-vote retirement), so a crash
// never splits a transaction.
//
// The store keeps no image of its own: a row is its record in the kv
// image, read in place (record.go), and the field maps of the API are
// built at its edge. Reads never wait for a flush: a commit publishes its
// records as the commit in flight, releases its lock and then flushes, so
// a reader can see a commit that is not yet durable — never one not yet
// acknowledged and then lost, since the ack waits for the flush. A backend
// write failure fail-stops the store — subsequent commits are refused —
// because a database that silently diverges from its log is worse than
// one that stops.
package store

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wls/internal/attrs"
	"wls/internal/kv"
	"wls/internal/metrics"
	"wls/internal/tuple"
	"wls/internal/vclock"
	"wls/internal/wire"
)

// Errors.
var (
	// ErrConflict is an optimistic-concurrency failure: a WHERE condition
	// (expected version or field values) no longer holds.
	ErrConflict = errors.New("store: optimistic concurrency conflict")
	// ErrLockTimeout means a pessimistic lock could not be acquired in time.
	ErrLockTimeout = errors.New("store: lock wait timeout")
	// ErrNotFound is returned for updates of missing rows.
	ErrNotFound = errors.New("store: row not found")
	// ErrDuplicate is returned when inserting an existing key.
	ErrDuplicate = errors.New("store: duplicate key")
	// ErrChangesTrimmed is returned by Changes when the requested suffix of
	// the change log has been trimmed away (the log is bounded). A
	// log-sniffer that sees it must resynchronize with a full Scan and
	// resume from LastLSN.
	ErrChangesTrimmed = errors.New("store: change log trimmed; resync via Scan")
	// ErrSessionEnded means a lock was granted after its session ended.
	ErrSessionEnded = errors.New("store: session ended")
)

// Tuple-space layout: one space per table for row records, one space for
// durably-prepared transaction votes, one for store metadata.
const (
	rowSpacePrefix = "t:"
	txSpace        = "s:tx"
	metaSpace      = "s:meta"
	lsnKey         = "lsn"
)

// defaultChangeCap bounds the in-memory change log. Sniffers further
// behind than this get ErrChangesTrimmed instead of an unbounded buffer.
const defaultChangeCap = 4096

// Row is one record. Fields are flat string pairs (the relational model the
// paper assumes); Version increments on every committed change.
type Row struct {
	Key     string
	Fields  map[string]string
	Version uint64
}

// field is one column of a row. Staged writes keep their fields as a list
// sorted by key, the order a row record lists them in; staged lists are
// never modified once built, so they are shared.
type field = attrs.Pair

// fieldsOf flattens a caller's field map into a new sorted list. nil stays
// nil: a staged write tells "no condition" from "no fields" by it.
func fieldsOf(m map[string]string) []field {
	if m == nil {
		return nil
	}
	return attrs.Sorted(make([]field, 0, len(m)), m)
}

// fieldMap is fs as a new map, never nil.
func fieldMap(fs []field) map[string]string {
	m := make(map[string]string, len(fs))
	for _, f := range fs {
		m[f.K] = f.V
	}
	return m
}

// Op is a change-log operation kind.
type Op byte

// Change operations.
const (
	OpPut Op = iota + 1
	OpDelete
)

// Change is one committed modification, in commit order. LSNs are dense
// and strictly increasing — the contract log-sniffers rely on.
type Change struct {
	LSN   uint64
	Table string
	Key   string
	Op    Op
}

// Trigger observes committed changes to a table, synchronously with the
// commit (the database-trigger flavour of backdoor-update detection).
type Trigger func(Change)

// Store is one backend database.
type Store struct {
	name string
	reg  *metrics.Registry
	tp   *tuple.Store // its backend's image holds the rows

	// commitMu is the commit-order lock: held from the moment a commit
	// takes its LSNs until its batch has been applied by the backend, so
	// LSN-bearing batches reach kv in LSN order, and one commit at a time
	// is in flight.
	//
	//wls:lockorder store.Store.commitMu<store.Store.mu
	commitMu sync.Mutex
	// batch backs the kv batch of the commit in flight, reused from commit
	// to commit under commitMu: the backend keeps the strings of a batch,
	// never its slice. A bulk commit's array is not kept.
	batch []kv.Op

	// mu guards the commit in flight, the change ring and everything
	// below. It is never held across a backend write, so readers, Session
	// and staging never queue behind an fsync. A read that finds a commit
	// in flight (flying) holds it across its View of the backend: the
	// records of the commit in flight and the backend's then read as one
	// state. flying is cleared only once the backend holds the records.
	//
	//wls:lockorder store.Store.mu<kv.Image.mu
	mu sync.RWMutex
	// flight is the commit in flight: the net state and record of every
	// row it writes, published with its LSNs and changes, and cleared once
	// the backend holds the records. flightAt indexes it when the commit
	// writes more than one row.
	flight    []flightRow
	flightAt  map[rowRef]int
	flying    atomic.Bool // set, under mu, while a commit is in flight
	sessions  map[string]*Session
	pendingTx map[string][]stagedWrite // durably prepared, unresolved
	// followed is set, before the LSN is read, by the first checkpoint a
	// reader takes (LastLSN or Changes); until then no change is kept. So
	// a checkpoint is never older than the first change kept.
	followed  atomic.Bool
	changes   []Change // a ring (see appendChange)
	head, n   int      // the live window: n changes from changes[head] on
	changeCap int
	trimLSN   uint64 // newest LSN no longer in the window (0 = none)
	lsn       uint64
	rowSpaces map[string]string // table → the space of its rows, built once per table
	broken    error             // first backend write failure; store is fail-stop
	triggers  map[string][]Trigger
	locks     *lockTable

	// Counters, resolved once: bumping one takes no lock.
	reads, scans, writes, conflicts, lockTimeouts *metrics.Counter
}

// New creates an empty in-memory store — the pre-refactor behaviour,
// now the kv.Mem backend under the same table semantics.
func New(name string, clock vclock.Clock) *Store {
	s, err := Open(name, clock, kv.NewMem())
	if err != nil {
		// The in-memory backend has no failure modes; this is unreachable.
		panic(fmt.Sprintf("store: opening in-memory backend: %v", err))
	}
	return s
}

// Open layers a store over an already-open kv backend, recovering the LSN
// high-water mark and in-doubt transactions from it; rows, versions and
// tombstones are the backend's records and stay there, but a record the
// store could not have written refuses the open. The change ring starts
// empty: Changes(since) for a pre-restart LSN reports ErrChangesTrimmed
// and the sniffer rescans. It keeps changes from the first checkpoint a
// reader takes on.
func Open(name string, clock vclock.Clock, kvs kv.Store) (*Store, error) {
	tp, err := tuple.New(kvs)
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	s := &Store{
		name:         name,
		reg:          reg,
		tp:           tp,
		sessions:     make(map[string]*Session),
		pendingTx:    make(map[string][]stagedWrite),
		rowSpaces:    make(map[string]string),
		changeCap:    defaultChangeCap,
		triggers:     make(map[string][]Trigger),
		reads:        reg.Counter("store.reads"),
		scans:        reg.Counter("store.scans"),
		writes:       reg.Counter("store.writes"),
		conflicts:    reg.Counter("store.conflicts"),
		lockTimeouts: reg.Counter("store.lock_timeouts"),
	}
	s.locks = newLockTable(clock)
	var derr error
	for _, sp := range tp.Spaces() {
		table, ok := strings.CutPrefix(sp, rowSpacePrefix)
		if !ok {
			continue
		}
		tp.Scan(sp, "", func(k, rec string) bool {
			if err := checkRecord(rec); err != nil {
				derr = fmt.Errorf("store: table %s key %s: %w", table, k, err)
				return false
			}
			return true
		})
		if derr != nil {
			return nil, derr
		}
	}
	if v, ok := tp.Get(metaSpace, lsnKey); ok {
		d := wire.NewDecoder(v)
		s.lsn = d.Uint64()
		if d.Err() != nil {
			return nil, fmt.Errorf("store: lsn record: %w", d.Err())
		}
	}
	// Every pre-restart change is outside the (empty) ring.
	s.trimLSN = s.lsn
	tp.Scan(txSpace, "", func(txID, v string) bool {
		writes, err := decodeStagedWrites([]byte(v))
		if err != nil {
			derr = fmt.Errorf("store: staged tx %s: %w", txID, err)
			return false
		}
		s.pendingTx[txID] = writes
		return true
	})
	if derr != nil {
		return nil, derr
	}
	return s, nil
}

// Name returns the store's name.
func (s *Store) Name() string { return s.name }

// Metrics returns the store's metric registry.
func (s *Store) Metrics() *metrics.Registry { return s.reg }

// Close closes the underlying backend.
func (s *Store) Close() error { return s.tp.Close() }

// SetChangeCap bounds the in-memory change log (default 4096 entries).
//
//wls:nolint unreached -- test hook: TestSnifferResyncsAfterChangeLogTrim
func (s *Store) SetChangeCap(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 1 {
		n = 1
	}
	s.changeCap = n
	if len(s.changes) > n {
		s.resizeRing(n)
	}
}

// Get returns a committed row. While no commit is in flight the backend's
// record is the row, and Get takes no store lock.
func (s *Store) Get(table, key string) (Row, bool) {
	s.reads.Inc()
	var r rowRecord
	var ok bool
	if s.flying.Load() {
		s.mu.RLock()
		r, ok = s.record(table, key)
		s.mu.RUnlock()
	} else {
		r, ok = s.committed(table, key)
	}
	if !ok || !r.live {
		return Row{}, false
	}
	return r.row(key), true
}

// record returns the record of table/key as the store sees it: the commit
// in flight's, else the backend's. s.mu held.
func (s *Store) record(table, key string) (rowRecord, bool) {
	if i, ok := s.inFlight(table, key); ok && s.flight[i].rec != "" {
		return parseRecord(s.flight[i].rec), true
	}
	return s.committed(table, key)
}

// committed returns the backend's record of table/key.
func (s *Store) committed(table, key string) (rowRecord, bool) {
	rec, ok := s.tp.View(rowSpacePrefix+table, key)
	if !ok {
		return rowRecord{}, false
	}
	return parseRecord(rec), true
}

// inFlight finds table/key among the rows of the commit in flight. s.mu
// held.
func (s *Store) inFlight(table, key string) (int, bool) {
	if s.flightAt != nil {
		i, ok := s.flightAt[rowRef{table, key}]
		return i, ok
	}
	for i := range s.flight {
		if s.flight[i].table == table && s.flight[i].key == key {
			return i, true
		}
	}
	return 0, false
}

// eachRecord visits every row record of a table as the store sees it, in
// key order: the records of the commit in flight merged into the backend's
// scan, in place of the backend's own for the rows they write. fn runs
// inside the scan, which holds the kv image's read lock: it must not write
// to the store. s.mu held.
func (s *Store) eachRecord(table string, fn func(key string, r rowRecord)) {
	var buf [4]*flightRow
	fl := buf[:0]
	for i := range s.flight {
		if f := &s.flight[i]; f.table == table && f.rec != "" {
			fl = append(fl, f)
		}
	}
	slices.SortFunc(fl, func(a, b *flightRow) int { return strings.Compare(a.key, b.key) })
	s.tp.Scan(rowSpacePrefix+table, "", func(key, rec string) bool {
		for len(fl) > 0 && fl[0].key <= key {
			f := fl[0]
			fl = fl[1:]
			fn(f.key, parseRecord(f.rec))
			if f.key == key {
				return true // the commit in flight's record is the row's
			}
		}
		fn(key, parseRecord(rec))
		return true
	})
	for _, f := range fl {
		fn(f.key, parseRecord(f.rec))
	}
}

// count returns the number of live rows of a table. s.mu held.
func (s *Store) count(table string) int {
	n := 0
	s.eachRecord(table, func(_ string, r rowRecord) {
		if r.live {
			n++
		}
	})
	return n
}

// Put writes a row outside any transaction (auto-commit). It is also the
// "backdoor": an application sharing the database but bypassing the
// application server (§3.3). On a backend write failure it panics — the
// store is fail-stop (see PutE for the error-returning form).
func (s *Store) Put(table, key string, fields map[string]string) Row {
	row, err := s.PutE(table, key, fields)
	if err != nil {
		panic(fmt.Sprintf("store: autocommit put: %v", err))
	}
	return row
}

// PutE is Put with the backend error surfaced.
func (s *Store) PutE(table, key string, fields map[string]string) (Row, error) {
	w := [1]stagedWrite{{kind: writePut, table: table, key: key, fields: fieldsOf(fields)}}
	res, err := s.commit(w[:], "autocommit", false)
	if err != nil {
		return Row{}, err
	}
	s.fire(res.fired)
	return Row{Key: key, Fields: fieldMap(res.fields), Version: res.version}, nil
}

// Delete removes a row outside any transaction. Like Put it panics on a
// backend write failure (see DeleteE).
func (s *Store) Delete(table, key string) bool {
	existed, err := s.DeleteE(table, key)
	if err != nil {
		panic(fmt.Sprintf("store: autocommit delete: %v", err))
	}
	return existed
}

// DeleteE is Delete with the backend error surfaced.
func (s *Store) DeleteE(table, key string) (bool, error) {
	w := [1]stagedWrite{{kind: writeDelete, table: table, key: key}}
	res, err := s.commit(w[:], "autocommit", false)
	if err != nil {
		return false, err
	}
	s.fire(res.fired)
	return res.applied == 1, nil
}

// Scan returns all rows of a table matching filter (nil matches all), in
// key order, the order the records are visited in. Under the locks it only
// collects the live records, which are immutable strings; their field maps
// are built, and the filter runs, once the locks are released.
//
// Then it yields its processor. Scans share every lock they take, so a
// surge of scanning goroutines never parks on one, and each would keep its
// processor for a whole scheduler slice (10 ms) while a request woken
// behind it waits to run: E24's local OLTP p99 read 5–10 ms that way, and
// under 0.5 ms with the yield.
func (s *Store) Scan(table string, filter func(Row) bool) []Row {
	s.scans.Inc()
	type keyed struct {
		key string
		r   rowRecord
	}
	s.mu.RLock()
	live := make([]keyed, 0, s.tp.Count(rowSpacePrefix+table, "")+len(s.flight))
	s.eachRecord(table, func(key string, r rowRecord) {
		if r.live {
			live = append(live, keyed{key, r})
		}
	})
	s.mu.RUnlock()
	runtime.Gosched()
	var out []Row
	for _, k := range live {
		if row := k.r.row(k.key); filter == nil || filter(row) {
			if out == nil {
				out = make([]Row, 0, len(live))
			}
			out = append(out, row)
		}
	}
	return out
}

// Tables lists the tables holding at least one live row, sorted.
func (s *Store) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tables := make(map[string]bool)
	for _, f := range s.flight {
		tables[f.table] = true
	}
	for _, sp := range s.tp.Spaces() {
		if t, ok := strings.CutPrefix(sp, rowSpacePrefix); ok {
			tables[t] = true
		}
	}
	out := make([]string, 0, len(tables))
	for t := range tables {
		if s.count(t) > 0 {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// RegisterTrigger attaches a trigger to a table.
func (s *Store) RegisterTrigger(table string, t Trigger) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.triggers[table] = append(s.triggers[table], t)
}

// Changes returns committed changes with LSN > since, for log-sniffing.
// If that suffix is no longer fully held — the bounded ring trimmed it,
// the store restarted, or no reader had taken a checkpoint when it was
// committed — it returns ErrChangesTrimmed and the sniffer must
// resynchronize with a Scan and resume from LastLSN.
func (s *Store) Changes(since uint64) ([]Change, error) {
	s.followed.Store(true)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if since < s.trimLSN {
		return nil, ErrChangesTrimmed
	}
	i := sort.Search(s.n, func(i int) bool { return s.change(i).LSN > since })
	out := make([]Change, s.n-i)
	for j := range out {
		out[j] = s.change(i + j)
	}
	return out, nil
}

// LastLSN returns the newest committed LSN. It is a reader's checkpoint:
// the store keeps every change after it for Changes.
func (s *Store) LastLSN() uint64 {
	s.followed.Store(true)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lsn
}

// InDoubt lists transactions that were durably prepared but neither
// committed nor rolled back — after a crash the coordinator resolves them.
//
//wls:nolint unreached -- item 11: recovery on restart lists the store's in-doubt transactions
func (s *Store) InDoubt() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.pendingTx))
	for id := range s.pendingTx {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ResolveInDoubt commits or rolls back a prepared transaction by id. A
// commit replays the staged writes through the normal commit path, so
// versions, LSNs, the change log and triggers behave exactly as they
// would have without the crash.
//
//wls:nolint unreached -- item 11: recovery on restart resolves them from the coordinator log
func (s *Store) ResolveInDoubt(txID string, commit bool) error {
	s.mu.RLock()
	writes, ok := s.pendingTx[txID]
	s.mu.RUnlock()
	if !ok {
		return nil // already resolved; idempotent for recovery
	}
	if !commit {
		return s.discardStage(txID)
	}
	res, err := s.commit(writes, txID, true)
	if err != nil {
		return err
	}
	s.fire(res.fired)
	return nil
}

// discardStage retires a prepared transaction's durable vote unapplied
// (rollback). Like the vote itself it is written outside both store locks.
func (s *Store) discardStage(txID string) error {
	if err := s.tp.Delete(txSpace, txID); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.pendingTx, txID)
	s.mu.Unlock()
	return nil
}

// --- internal commit helpers (s.mu held) ----------------------------------

// flightRow is one row the commit in flight writes: its state as the
// commit's writes leave it and, once the commit publishes, the record that
// carries that state to the backend — and to readers until the backend
// holds it.
type flightRow struct {
	table, key string
	live       bool
	version    uint64 // a tombstone's is the row's last version; 0 for a row never written
	fields     []field
	touched    bool   // a write changed the row; an untouched row gets no record
	rec        string // the encoded record; "" until published
}

// flightRow returns the commit's entry for table/key, adding one that
// starts from the row's committed record.
func (s *Store) flightRow(table, key string) *flightRow {
	if i, ok := s.inFlight(table, key); ok {
		return &s.flight[i]
	}
	f := flightRow{table: table, key: key}
	if r, ok := s.record(table, key); ok {
		f.live, f.version = r.live, r.version
	}
	if s.flightAt != nil {
		s.flightAt[rowRef{table, key}] = len(s.flight)
	}
	s.flight = append(s.flight, f) // reused from commit to commit (see land)
	return &s.flight[len(s.flight)-1]
}

// land ends the commit in flight: the backend holds its records. (After a
// failed write it never lands; the store has stopped.) A bulk commit's
// array is not kept for the next one.
func (s *Store) land() {
	s.flying.Store(false)
	clear(s.flight)
	s.flight, s.flightAt = s.flight[:0], nil
	if cap(s.flight) > 64 {
		s.flight = nil
	}
}

// change returns the i-th oldest change in the ring.
func (s *Store) change(i int) Change { return s.changes[(s.head+i)%len(s.changes)] }

// appendChange adds to the bounded ring. It grows by doubling up to
// changeCap; full, the newest change overwrites the oldest. Before a reader
// has taken a checkpoint it keeps nothing.
func (s *Store) appendChange(ch Change) {
	if !s.followed.Load() {
		s.trimLSN = ch.LSN
		return
	}
	if s.n == len(s.changes) {
		if s.n == s.changeCap {
			s.trimLSN = s.changes[s.head].LSN
			s.changes[s.head] = ch
			s.head = (s.head + 1) % s.n
			return
		}
		s.resizeRing(min(max(2*s.n, 16), s.changeCap))
	}
	s.changes[(s.head+s.n)%len(s.changes)] = ch
	s.n++
}

// resizeRing re-lays the window oldest-first into a new array of size
// entries, trimming the oldest changes that do not fit.
func (s *Store) resizeRing(size int) {
	for ; s.n > size; s.n-- {
		s.trimLSN = s.changes[s.head].LSN
		s.head = (s.head + 1) % len(s.changes)
	}
	ring := make([]Change, size) // the ring's growth: a few doublings per store, then never
	for i := range ring[:s.n] {
		ring[i] = s.change(i)
	}
	s.changes, s.head = ring, 0
}

// commitResult is what a commit leaves for its caller: the last put's
// version and fields, how many writes changed a row, and the changes
// whose triggers to fire once the caller has let go of its row locks.
type commitResult struct {
	version uint64
	fields  []field
	applied int
	fired   []Change
}

// commit applies a validated write set. Under mu it assigns versions and
// LSNs, encodes one record per row written — its net state — and
// publishes them as the commit in flight, so readers see the commit from
// here on. Then ONE atomic backend batch carries the records, the LSN and
// — if staged, when the transaction has a durable vote (two-phase commits
// and recovery; one-phase commits never stage) — the vote's retirement.
// Every op names strings that already exist: the table's space, the
// caller's row key, the txID and the record.
// mu is released before the batch is flushed; the commit-order lock is
// held until it has been. The backend keeps each record as it is: it is
// the row's one copy. Triggers are left to the caller (fire), who may
// still hold row locks.
func (s *Store) commit(writes []stagedWrite, txID string, staged bool) (commitResult, error) {
	var res commitResult
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.mu.Lock()
	if s.broken != nil {
		s.mu.Unlock()
		return res, s.broken
	}
	if staged {
		if _, ok := s.pendingTx[txID]; !ok {
			s.mu.Unlock()
			return res, nil // already resolved; idempotent for recovery
		}
		delete(s.pendingTx, txID)
	}
	if len(writes) > 1 {
		s.flightAt = make(map[rowRef]int, len(writes))
	}
	if cap(s.flight) < len(writes) {
		s.flight = make([]flightRow, 0, len(writes))
	}
	for _, w := range writes {
		f, op := s.flightRow(w.table, w.key), OpPut
		switch {
		case w.kind == writePut:
			// A tombstone's version carries on: versions for a key stay
			// monotone across delete-then-recreate.
			f.live, f.version, f.fields = true, f.version+1, w.fields
			res.version, res.fields = f.version, w.fields
		case f.live:
			f.live, op = false, OpDelete
		default:
			continue // a delete of a row that is not there
		}
		f.touched = true
		s.lsn++
		ch := Change{LSN: s.lsn, Table: w.table, Key: w.key, Op: op}
		s.appendChange(ch)
		s.writes.Inc()
		res.applied++
		if len(s.triggers[w.table]) > 0 {
			res.fired = append(res.fired, ch)
		}
	}
	if res.applied == 0 && !staged {
		s.land()
		s.mu.Unlock()
		return res, nil // nothing changed and nothing to retire
	}
	// Every record is a string of its own but the LSN record, which shares
	// the first row record's: one allocation for the usual one-row commit.
	e := wire.AcquireEncoder()
	e.Uint64(s.lsn)
	lsn := ""
	ops := s.batch[:0]
	for i := range s.flight {
		f := &s.flight[i]
		if !f.touched {
			continue
		}
		start := e.Len()
		encodeRecord(e, f.live, f.version, f.fields)
		if lsn == "" {
			b := string(e.Bytes())
			lsn, f.rec = b[:start], b[start:]
		} else {
			f.rec = string(e.Bytes()[start:])
		}
		f.fields = nil
		ops = append(ops, kv.Op{Kind: kv.OpPut, Space: s.rowSpace(f.table), Key: f.key, Value: f.rec})
	}
	if lsn == "" { // no row written: e holds the LSN alone
		lsn = string(e.Bytes())
	}
	e.Release()
	ops = append(ops, kv.Op{Kind: kv.OpPut, Space: metaSpace, Key: lsnKey, Value: lsn})
	if staged {
		ops = append(ops, kv.Op{Kind: kv.OpDelete, Space: txSpace, Key: txID})
	}
	s.flying.Store(true)
	s.mu.Unlock()

	err := s.tp.Apply(ops)
	clear(ops)
	if s.batch = ops[:0]; cap(ops) > 64 {
		s.batch = nil
	}
	if err != nil {
		// The commit stays in flight: readers may have seen it, and LastLSN
		// and Changes keep it, so reads stay where the store stopped.
		return commitResult{}, s.failStop(err)
	}
	s.mu.Lock()
	s.land()
	s.mu.Unlock()
	return res, nil
}

// rowSpace returns the space of table's rows. s.mu held for writing.
func (s *Store) rowSpace(table string) string {
	sp, ok := s.rowSpaces[table]
	if !ok {
		sp = rowSpacePrefix + table
		s.rowSpaces[table] = sp
	}
	return sp
}

// failStop records the first backend write failure and returns the error
// every later commit will get.
func (s *Store) failStop(err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken == nil {
		s.broken = fmt.Errorf("store: backend write failed, store is fail-stop: %w", err)
	}
	return s.broken
}

// fire runs the triggers of committed changes, outside every store lock.
func (s *Store) fire(changes []Change) {
	for _, ch := range changes {
		s.mu.RLock()
		trigs := s.triggers[ch.Table] // append-only: this view is never written
		s.mu.RUnlock()
		for _, t := range trigs {
			t(ch)
		}
	}
}

// --- staged-vote encoding (row records: record.go) -------------------------

func encodeStagedWrites(e *wire.Encoder, writes []stagedWrite) {
	e.Int(len(writes))
	for _, w := range writes {
		e.Byte(byte(w.kind))
		e.String(w.table)
		e.String(w.key)
		e.Bool(w.insert)
		e.Uint64(w.expectVersion)
		encodeOptFields(e, w.fields)
		encodeOptFields(e, w.expectFields)
	}
}

// encodeOptFields writes a field list behind a presence flag: staged
// writes distinguish a nil condition from an empty one.
func encodeOptFields(e *wire.Encoder, fs []field) {
	if fs == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	attrs.AppendPairs(e, fs)
}

// decodeOptFields reads what encodeOptFields wrote: nil for no list, else
// a non-nil list whose keys ascend strictly.
func decodeOptFields(d *wire.Decoder) ([]field, error) {
	if !d.Bool() {
		return nil, d.Err()
	}
	list, err := attrs.Read(d, true)
	if err != nil {
		return nil, fmt.Errorf("store: staged fields: %w", err)
	}
	fs := make([]field, 0, attrs.Len(list))
	for c := attrs.Walk(list); c.Next(); {
		fs = append(fs, field{K: string(c.K), V: string(c.V)})
	}
	return fs, nil
}

func decodeStagedWrites(b []byte) ([]stagedWrite, error) {
	d := wire.NewDecoder(b)
	// A write is a kind, table, key, insert flag, version and two field
	// flags: seven bytes at least.
	n := d.Count(7)
	if d.Err() != nil {
		return nil, fmt.Errorf("staged write count: %w", d.Err())
	}
	writes := make([]stagedWrite, 0, n)
	for i := 0; i < n; i++ {
		w := stagedWrite{kind: writeKind(d.Byte())}
		w.table = d.String()
		w.key = d.String()
		w.insert = d.Bool()
		w.expectVersion = d.Uint64()
		var err error
		if w.fields, err = decodeOptFields(d); err != nil {
			return nil, err
		}
		if w.expectFields, err = decodeOptFields(d); err != nil {
			return nil, err
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		if w.kind != writePut && w.kind != writeDelete {
			return nil, fmt.Errorf("staged write kind %d", w.kind)
		}
		writes = append(writes, w)
	}
	return writes, nil
}

// ---------------------------------------------------------------------------
// Transactional sessions

// writeKind distinguishes staged writes.
type writeKind byte

const (
	writePut writeKind = iota + 1
	writeDelete
)

// stagedWrite is one buffered modification plus its optimistic condition.
type stagedWrite struct {
	kind   writeKind
	table  string
	key    string
	fields []field
	// expectVersion, when non-zero, is the version the row must still have
	// at prepare time (optimistic, version-field flavour).
	expectVersion uint64
	// expectFields, when non-nil, are field values that must still match at
	// prepare time (optimistic, data-field flavour).
	expectFields []field
	// insert requires the row to be absent.
	insert bool
}

// Session is the transactional view of the store for one transaction. It
// implements tx.Resource: writes stage locally, Prepare validates WHERE
// conditions, locks the write set, and durably records the yes vote;
// Commit publishes.
type Session struct {
	store *Store
	txID  string

	mu     sync.Mutex
	writes []stagedWrite // append-only until Commit/Rollback drop it
	locked []rowRef      // pessimistic locks held (to tx end)
	voted  bool          // Prepare has written the durable vote
	ended  bool          // release has run: a later grant is given back
	// LockTimeout bounds pessimistic lock waits.
	LockTimeout time.Duration

	// writeBuf and lockBuf back writes and locked for the one-row
	// transaction: one staged write, and up to two holds of its row (an
	// explicit Lock plus the prepare lock of the write to it). fieldBuf
	// holds the first staged write's fields when there are at most two.
	// vote is the kv batch of the durable vote.
	writeBuf [1]stagedWrite
	fieldBuf [2]field
	lockBuf  [2]rowRef
	vote     [1]kv.Op
}

type rowRef struct{ table, key string }

// Session returns (creating on first use) the session for txID.
func (s *Store) Session(txID string) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[txID]
	if !ok {
		sess = &Session{store: s, txID: txID, LockTimeout: 5 * time.Second}
		sess.writes, sess.locked = sess.writeBuf[:0], sess.lockBuf[:0]
		s.sessions[txID] = sess
	}
	return sess
}

func (s *Store) dropSession(txID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.sessions, txID)
}

// Insert stages a row creation; prepare fails with ErrDuplicate if the key
// exists by then.
func (se *Session) Insert(table, key string, fields map[string]string) {
	se.stage(stagedWrite{kind: writePut, table: table, key: key, insert: true}, fields)
}

// Update stages an unconditional (last-writer-wins) update.
func (se *Session) Update(table, key string, fields map[string]string) {
	se.stage(stagedWrite{kind: writePut, table: table, key: key}, fields)
}

// UpdateVersioned stages an update that only commits if the row still has
// the given version — the application-level version-field variant of the
// paper's optimistic concurrency.
func (se *Session) UpdateVersioned(table, key string, expectVersion uint64, fields map[string]string) {
	se.stage(stagedWrite{kind: writePut, table: table, key: key, expectVersion: expectVersion}, fields)
}

// UpdateWhere stages an update that only commits if the listed fields still
// hold the expected values — the actual-data-fields variant ("these values
// are compared with those in the database using an additional WHERE clause
// in the UPDATE statement").
func (se *Session) UpdateWhere(table, key string, expect, fields map[string]string) {
	se.stage(stagedWrite{kind: writePut, table: table, key: key, expectFields: fieldsOf(expect)}, fields)
}

// Delete stages a row removal.
func (se *Session) Delete(table, key string) {
	se.stage(stagedWrite{kind: writeDelete, table: table, key: key}, nil)
}

// stage appends w with fields as its sorted field list. The first write a
// session stages (writes is still writeBuf's empty slice) builds a list of
// up to two fields in fieldBuf; it is never modified after, so sharing it
// into pendingTx is safe.
func (se *Session) stage(w stagedWrite, fields map[string]string) {
	se.mu.Lock()
	defer se.mu.Unlock()
	if fields != nil && len(fields) <= len(se.fieldBuf) && se.writes != nil && len(se.writes) == 0 {
		w.fields = attrs.Sorted(se.fieldBuf[:0], fields)
	} else {
		w.fields = fieldsOf(fields)
	}
	se.writes = append(se.writes, w)
}

// Lock acquires a pessimistic exclusive lock on a row, held until the
// transaction completes. While held, no other transaction can lock or
// prepare a write to the row.
func (se *Session) Lock(table, key string) error {
	se.mu.Lock()
	from := len(se.locked)
	se.locked = append(se.locked, rowRef{table, key})
	refs, timeout := se.locked[from:], se.LockTimeout
	se.mu.Unlock()
	err := se.hold(from, refs, timeout)
	if err == ErrLockTimeout {
		se.store.lockTimeouts.Inc()
	}
	return err
}

// GetForUpdate locks the row pessimistically and returns it.
func (se *Session) GetForUpdate(table, key string) (Row, bool, error) {
	if err := se.Lock(table, key); err != nil {
		return Row{}, false, err
	}
	r, ok := se.store.Get(table, key)
	return r, ok, nil
}

// Prepare implements tx.Resource: it locks the write set, validates every
// optimistic condition, and durably records the yes vote — a prepared
// transaction survives a crash and resurfaces through InDoubt.
func (se *Session) Prepare(txID string) error {
	return se.prepare(true)
}

func (se *Session) prepare(durable bool) error {
	// Lock the write set (short-duration prepare locks) so validation and
	// commit are atomic with respect to other transactions. (Across stores
	// two transactions can each win one row; the timeout then aborts one.)
	// Every write takes its own hold: the lock table is re-entrant, so a row
	// already held — by Lock, or by an earlier write to it — is one more
	// depth, matched by one more release.
	se.mu.Lock()
	writes := se.writes // shared, not copied: staged entries are never modified once appended
	from := len(se.locked)
	se.locked = slices.Grow(se.locked, len(writes)) // lockBuf holds the one-row case
	for _, w := range writes {
		se.locked = append(se.locked, rowRef{w.table, w.key})
	}
	refs, timeout := se.locked[from:], se.LockTimeout
	se.mu.Unlock()
	if err := se.hold(from, refs, timeout); err != nil {
		return err
	}

	// Validate WHERE conditions against committed state.
	s := se.store
	s.mu.RLock()
	err := s.validate(writes)
	if err == nil && durable {
		err = s.broken
	}
	s.mu.RUnlock()
	if err != nil {
		return err
	}
	if durable {
		// The yes vote: staged writes become durable before Prepare returns,
		// so a post-crash coordinator can still commit this transaction. It
		// is this transaction's own record, without an LSN: no store lock.
		e := wire.AcquireEncoder()
		encodeStagedWrites(e, writes)
		se.vote[0] = kv.Op{Kind: kv.OpPut, Space: txSpace, Key: se.txID, Value: string(e.Bytes())}
		err := s.tp.Apply(se.vote[:])
		se.vote[0] = kv.Op{}
		e.Release()
		if err != nil {
			return s.failStop(err)
		}
		s.mu.Lock()
		s.pendingTx[se.txID] = writes
		s.mu.Unlock()
		se.mu.Lock()
		se.voted = true
		se.mu.Unlock()
	}
	return nil
}

// validate checks every write's WHERE condition against the committed rows
// (s.mu held).
func (s *Store) validate(writes []stagedWrite) error {
	for _, w := range writes {
		cur, ok := s.record(w.table, w.key)
		exists := ok && cur.live
		if w.insert && exists {
			return fmt.Errorf("%w: %s/%s", ErrDuplicate, w.table, w.key)
		}
		if w.expectVersion != 0 {
			if !exists || cur.version != w.expectVersion {
				s.conflicts.Inc()
				return fmt.Errorf("%w: %s/%s version %d != expected %d",
					ErrConflict, w.table, w.key, cur.version, w.expectVersion)
			}
		}
		if w.expectFields != nil {
			if !exists {
				s.conflicts.Inc()
				return fmt.Errorf("%w: %s/%s deleted", ErrConflict, w.table, w.key)
			}
			for _, f := range w.expectFields {
				if got, _ := attrs.Lookup(cur.fields, f.K); got != f.V {
					s.conflicts.Inc()
					return fmt.Errorf("%w: %s/%s field %s = %q, expected %q",
						ErrConflict, w.table, w.key, f.K, got, f.V)
				}
			}
		}
	}
	return nil
}

// Commit implements tx.Resource. For one-phase commits (single resource in
// the transaction) Prepare may not have run; Commit validates in that case
// without durably staging the vote — the commit batch itself is atomic, so
// a separate staged record would buy nothing.
func (se *Session) Commit(txID string) error {
	se.mu.Lock()
	voted := se.voted
	se.mu.Unlock()
	if !voted { // one-phase: Prepare has not run
		if err := se.prepare(false); err != nil {
			se.release()
			return err
		}
	}
	se.mu.Lock()
	writes := se.writes
	se.writes = nil
	se.mu.Unlock()

	s := se.store
	res, err := s.commit(writes, se.txID, voted)
	se.release()
	s.dropSession(se.txID)
	if err != nil {
		return err
	}
	s.fire(res.fired)
	return nil
}

// Rollback implements tx.Resource.
func (se *Session) Rollback(txID string) error {
	se.mu.Lock()
	voted := se.voted
	se.writes, se.voted = nil, false
	se.mu.Unlock()
	var err error
	if voted {
		err = se.store.discardStage(se.txID)
	}
	se.release()
	se.store.dropSession(se.txID)
	return err
}

// hold takes refs, appended as locked[from:] under se.mu, in one pass of
// the lock table. A pass that ends after release (a timeout Rollback while
// it waits) gives back all it was granted. A timed-out pass cuts its
// ungranted refs off locked if they are still its tail; else release skips
// them, as txID holds no such row or drops it anyway.
func (se *Session) hold(from int, refs []rowRef, timeout time.Duration) error {
	n, err := se.store.locks.acquire(se.txID, refs, timeout)
	se.mu.Lock()
	ended := se.ended
	if err != nil && !ended && len(se.locked) == from+len(refs) {
		se.locked = se.locked[:from+n]
	}
	se.mu.Unlock() // a leaf: the lock table is not entered under it
	if !ended {
		return err
	}
	se.store.locks.release(se.txID, refs[:n])
	return cmp.Or(err, ErrSessionEnded)
}

// release drops every hold of the session in one pass of the lock table.
func (se *Session) release() {
	se.mu.Lock()
	locked := se.locked
	se.locked, se.ended = nil, true
	se.mu.Unlock()
	se.store.locks.release(se.txID, locked)
}
