// Package tuple is the middle layer of the persistence stack: named
// keyspaces ("spaces") and XA transaction sessions, implemented on the
// flat ordered bytes of a kv.Store. The layering is
//
//	kv      flat ordered key → value, atomic batches, mem or WAL backend
//	tuple   spaces, cross-space batches, two-phase-commit sessions
//	store   tables, versioned rows, triggers, change log (wls/internal/store)
//
// A space's entries live under the kv prefix "<space>\x00", so per-space
// scans are kv prefix scans and spaces cannot collide. Two-phase staging
// does NOT extend the kv interface: a prepared transaction's ops are
// encoded into an ordinary kv record under the reserved "\x00tx\x00"
// prefix (no space may start with NUL, so data scans never see it).
// Prepare durably writes that record — the yes vote survives a crash —
// and Commit applies the staged ops AND deletes the stage record in one
// atomic kv batch, so recovery sees a transaction as either pending,
// committed, or aborted, never half-applied.
package tuple

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"wls/internal/kv"
	"wls/internal/wire"
)

// stagePrefix is the reserved kv prefix for prepared-transaction records.
const stagePrefix = "\x00tx\x00"

// Op is one space-addressed mutation.
type Op struct {
	Kind  kv.OpKind
	Space string
	Key   string
	// Flat, when set, replaces Space and Key: FlatKey of them, built by the
	// caller — once, for a record written again and again, or in one
	// concatenation where Space would be built for the op.
	Flat  string
	Value string // kept as it is (kv.Op.Value)
}

// FlatKey maps a space-addressed key onto the flat kv keyspace.
func FlatKey(space, key string) string { return space + "\x00" + key }

// Store layers spaces and XA sessions over a kv backend.
type Store struct {
	kv kv.Store

	// mu guards pending; kv calls made under it take the backend's own
	// lock, never the other way around.
	//
	//wls:lockorder tuple.Store.mu<tuple.Session.mu
	mu      sync.Mutex
	pending map[string][]Op
}

// New wraps a kv backend, recovering prepared-but-unresolved transactions
// from their durable stage records.
func New(kvs kv.Store) (*Store, error) {
	st := &Store{kv: kvs, pending: make(map[string][]Op)}
	var derr error
	kvs.Scan(stagePrefix, func(k, v string) bool {
		txID := k[len(stagePrefix):]
		ops, err := decodeStaged([]byte(v))
		if err != nil {
			derr = fmt.Errorf("tuple: stage record for %q: %w", txID, err)
			return false
		}
		st.pending[txID] = ops
		return true
	})
	if derr != nil {
		return nil, derr
	}
	return st, nil
}

// KV exposes the underlying backend (benchmarks size it, tests poke it).
func (st *Store) KV() kv.Store { return st.kv }

// Get reads one key from a space.
func (st *Store) Get(space, key string) ([]byte, bool) {
	return st.kv.Get(FlatKey(space, key))
}

// View returns a space's value for key without copying it (kv.Store.View).
// The flat key is built in a pooled buffer, so a read allocates nothing.
func (st *Store) View(space, key string) (string, bool) {
	bp := keyBufs.Get().(*[]byte)
	flat := append(append(append((*bp)[:0], space...), 0), key...) // FlatKey
	v, ok := st.kv.View(flat)
	*bp = flat
	keyBufs.Put(bp)
	return v, ok
}

// keyBufs holds the flat keys View looks up: a key passed through the kv
// interface escapes, so a read borrows a buffer rather than allocate one.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// Put writes one key in a space.
func (st *Store) Put(space, key string, value []byte) error {
	return st.kv.Put(FlatKey(space, key), value)
}

// Delete removes one key from a space.
func (st *Store) Delete(space, key string) error {
	return st.kv.Delete(FlatKey(space, key))
}

// Scan visits a space's keys carrying prefix, in ascending key order. The
// values are the backend's own (kv.Store.Scan).
func (st *Store) Scan(space, prefix string, fn func(key, value string) bool) {
	skip := len(space) + 1
	st.kv.Scan(FlatKey(space, prefix), func(k, v string) bool {
		return fn(k[skip:], v)
	})
}

// Count reports how many keys in a space carry the prefix.
func (st *Store) Count(space, prefix string) int {
	return st.kv.Count(FlatKey(space, prefix))
}

// Spaces lists the distinct spaces holding at least one key.
func (st *Store) Spaces() []string {
	seen := map[string]bool{}
	st.kv.Scan("", func(k, _ string) bool {
		if strings.HasPrefix(k, "\x00") {
			return true // reserved namespace
		}
		if i := strings.IndexByte(k, 0); i >= 0 {
			seen[k[:i]] = true
		}
		return true
	})
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// mapOps appends the kv form of space-addressed ops to out.
func mapOps(out []kv.Op, ops []Op) []kv.Op {
	for _, o := range ops {
		key := o.Flat
		if key == "" {
			key = FlatKey(o.Space, o.Key)
		}
		out = append(out, kv.Op{Kind: o.Kind, Key: key, Value: o.Value}) // Apply passes a pooled slice
	}
	return out
}

// kvOpsPool recycles the kv form of a batch: backends keep its strings,
// never the slice.
var kvOpsPool = sync.Pool{New: func() any { return new([]kv.Op) }}

// Apply commits a cross-space batch atomically.
func (st *Store) Apply(ops []Op) error {
	buf := kvOpsPool.Get().(*[]kv.Op)
	kops := mapOps((*buf)[:0], ops)
	err := st.kv.Apply(kops)
	clear(kops)
	*buf = kops[:0]
	kvOpsPool.Put(buf)
	return err
}

// Close closes the underlying backend.
func (st *Store) Close() error { return st.kv.Close() }

// encodeStaged renders a prepared transaction's ops for its stage record.
func encodeStaged(ops []Op) []byte {
	e := wire.NewEncoder(64)
	e.Int(len(ops))
	for _, o := range ops {
		e.Byte(byte(o.Kind))
		e.String(o.Space)
		e.String(o.Key)
		if o.Kind == kv.OpPut {
			e.String(o.Value)
		}
	}
	return e.Bytes()
}

func decodeStaged(b []byte) ([]Op, error) {
	d := wire.NewDecoder(b)
	n := d.Int()
	if d.Err() != nil || n < 0 || n > 1<<24 {
		return nil, fmt.Errorf("staged op count %d", n)
	}
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		o := Op{Kind: kv.OpKind(d.Byte())}
		o.Space = d.String()
		o.Key = d.String()
		switch o.Kind {
		case kv.OpPut:
			o.Value = d.String()
		case kv.OpDelete:
		default:
			return nil, fmt.Errorf("staged op kind %d", o.Kind)
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		ops = append(ops, o)
	}
	return ops, nil
}

// Session is a transactional batch implementing tx.Resource. Mutations
// stage in memory; Prepare makes them durable (the yes vote); Commit
// applies them and retires the stage record in one atomic kv batch.
type Session struct {
	st *Store

	// mu guards the staged ops; it nests inside Store.mu.
	mu     sync.Mutex
	ops    []Op
	staged bool
}

// Session starts a transactional batch.
func (st *Store) Session() *Session { return &Session{st: st} }

// Put stages a write.
func (s *Session) Put(space, key string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops = append(s.ops, Op{Kind: kv.OpPut, Space: space, Key: key, Value: string(value)})
}

// Delete stages a removal.
func (s *Session) Delete(space, key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops = append(s.ops, Op{Kind: kv.OpDelete, Space: space, Key: key})
}

// Prepare implements tx.Resource: the staged ops are written durably
// under the transaction's stage record before the yes vote returns.
func (s *Session) Prepare(txID string) error {
	s.mu.Lock()
	ops := append([]Op{}, s.ops...)
	s.mu.Unlock()
	st := s.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.kv.Put(stagePrefix+txID, encodeStaged(ops)); err != nil {
		return err
	}
	st.pending[txID] = ops
	s.mu.Lock()
	s.staged = true
	s.mu.Unlock()
	return nil
}

// Commit implements tx.Resource. One-phase commits stage implicitly.
// Applying the ops and deleting the stage record is a single atomic kv
// batch: recovery never sees a transaction both applied and pending.
func (s *Session) Commit(txID string) error {
	s.mu.Lock()
	staged := s.staged
	s.mu.Unlock()
	if !staged {
		if err := s.Prepare(txID); err != nil {
			return err
		}
	}
	st := s.st
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.commitLocked(txID)
}

func (st *Store) commitLocked(txID string) error {
	ops, ok := st.pending[txID]
	if !ok {
		return nil // already resolved; idempotent for recovery
	}
	batch := append(mapOps(make([]kv.Op, 0, len(ops)+1), ops), kv.Op{Kind: kv.OpDelete, Key: stagePrefix + txID})
	if err := st.kv.Apply(batch); err != nil {
		return err
	}
	delete(st.pending, txID)
	return nil
}

// Rollback implements tx.Resource.
func (s *Session) Rollback(txID string) error {
	st := s.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.pending[txID]; !ok {
		s.mu.Lock()
		s.ops = nil
		s.mu.Unlock()
		return nil
	}
	return st.rollbackLocked(txID)
}

func (st *Store) rollbackLocked(txID string) error {
	if err := st.kv.Delete(stagePrefix + txID); err != nil {
		return err
	}
	delete(st.pending, txID)
	return nil
}

// InDoubt lists transactions that were prepared but neither committed nor
// aborted — after a crash the coordinator resolves them.
func (st *Store) InDoubt() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, 0, len(st.pending))
	for id := range st.pending {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ResolveInDoubt commits or aborts a prepared transaction by id.
func (st *Store) ResolveInDoubt(txID string, commit bool) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if commit {
		return st.commitLocked(txID)
	}
	return st.rollbackLocked(txID)
}
