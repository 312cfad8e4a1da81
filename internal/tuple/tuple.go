// Package tuple is the middle layer of the persistence stack: XA
// transaction sessions over the named keyspaces ("spaces") of a kv.Store.
// The layering is
//
//	kv      spaces of ordered key → value, atomic batches, mem or WAL backend
//	tuple   cross-space sessions with two-phase commit
//	store   tables, versioned rows, triggers, change log (wls/internal/store)
//
// A space is a kv space, so a per-space read or scan goes straight to the
// backend's image, and a batch is handed to the backend as it is. Two-phase
// staging does NOT extend the kv interface: a prepared transaction's ops
// are encoded into an ordinary kv record in the reserved space "", under
// the key "tx\x00<id>" (on disk, the flat key "\x00tx\x00<id>"; Spaces
// leaves the reserved space out). Prepare durably writes that record — the
// yes vote survives a crash — and Commit applies the staged ops AND deletes
// the stage record in one atomic kv batch, so recovery sees a transaction
// as either pending, committed, or aborted, never half-applied.
package tuple

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"wls/internal/kv"
	"wls/internal/wire"
)

// The reserved space and key prefix of prepared-transaction records.
const (
	stageSpace  = ""
	stagePrefix = "tx\x00"
)

// Store layers XA sessions over a kv backend.
type Store struct {
	kv  kv.Store
	img *kv.Image

	// mu guards pending; kv calls made under it take the backend's own
	// lock, never the other way around.
	//
	//wls:lockorder tuple.Store.mu<tuple.Session.mu
	mu      sync.Mutex
	pending map[string][]kv.Op
}

// New wraps a kv backend, recovering prepared-but-unresolved transactions
// from their durable stage records.
func New(kvs kv.Store) (*Store, error) {
	st := &Store{kv: kvs, img: kvs.Image(), pending: make(map[string][]kv.Op)}
	var derr error
	st.img.Scan(stageSpace, stagePrefix, func(k, v string) bool {
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

// Get reads one key from a space, as a copy the caller owns.
func (st *Store) Get(space, key string) ([]byte, bool) {
	v, ok := st.img.View(space, key)
	if !ok {
		return nil, false
	}
	return []byte(v), true
}

// View returns a space's value for key without copying it (kv.Image.View).
func (st *Store) View(space, key string) (string, bool) {
	return st.img.View(space, key)
}

// Put writes one key in a space.
func (st *Store) Put(space, key string, value []byte) error {
	return st.kv.Apply([]kv.Op{{Kind: kv.OpPut, Space: space, Key: key, Value: string(value)}})
}

// Delete removes one key from a space.
func (st *Store) Delete(space, key string) error {
	return st.kv.Apply([]kv.Op{{Kind: kv.OpDelete, Space: space, Key: key}})
}

// Scan visits a space's keys carrying prefix, in ascending key order. The
// values are the backend's own (kv.Image.Scan).
func (st *Store) Scan(space, prefix string, fn func(key, value string) bool) {
	st.img.Scan(space, prefix, fn)
}

// Count reports how many keys in a space carry the prefix.
func (st *Store) Count(space, prefix string) int {
	return st.img.Count(space, prefix)
}

// Spaces lists the distinct spaces holding at least one key, sorted.
func (st *Store) Spaces() []string {
	return slices.DeleteFunc(st.img.Spaces(), func(s string) bool { return s == stageSpace })
}

// Apply commits a cross-space batch atomically.
func (st *Store) Apply(ops []kv.Op) error { return st.kv.Apply(ops) }

// Close closes the underlying backend.
func (st *Store) Close() error { return st.kv.Close() }

// encodeStaged renders a prepared transaction's ops for its stage record.
func encodeStaged(ops []kv.Op) string {
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
	return string(e.Bytes())
}

func decodeStaged(b []byte) ([]kv.Op, error) {
	d := wire.NewDecoder(b)
	n := d.Count(3) // an op is at least its kind and two empty strings
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("staged op count: %w", err)
	}
	ops := make([]kv.Op, 0, n)
	for i := 0; i < n; i++ {
		o := kv.Op{Kind: kv.OpKind(d.Byte())}
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
	ops    []kv.Op
	staged bool
}

// Session starts a transactional batch.
func (st *Store) Session() *Session { return &Session{st: st} }

// Put stages a write.
func (s *Session) Put(space, key string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops = append(s.ops, kv.Op{Kind: kv.OpPut, Space: space, Key: key, Value: string(value)})
}

// Delete stages a removal.
func (s *Session) Delete(space, key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops = append(s.ops, kv.Op{Kind: kv.OpDelete, Space: space, Key: key})
}

// Prepare implements tx.Resource: the staged ops are written durably
// under the transaction's stage record before the yes vote returns.
func (s *Session) Prepare(txID string) error {
	s.mu.Lock()
	ops := slices.Clone(s.ops)
	s.mu.Unlock()
	st := s.st
	st.mu.Lock()
	defer st.mu.Unlock()
	vote := []kv.Op{{Kind: kv.OpPut, Space: stageSpace, Key: stagePrefix + txID, Value: encodeStaged(ops)}}
	if err := st.kv.Apply(vote); err != nil {
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
	batch := append(slices.Clip(ops), kv.Op{Kind: kv.OpDelete, Space: stageSpace, Key: stagePrefix + txID})
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
	if err := st.Delete(stageSpace, stagePrefix+txID); err != nil {
		return err
	}
	delete(st.pending, txID)
	return nil
}

// InDoubt lists transactions that were prepared but neither committed nor
// aborted — after a crash the coordinator resolves them.
//
//wls:nolint unreached -- item 11: recovery on restart lists the store's in-doubt transactions
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
//
//wls:nolint unreached -- item 11: recovery on restart resolves them from the coordinator log
func (st *Store) ResolveInDoubt(txID string, commit bool) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if commit {
		return st.commitLocked(txID)
	}
	return st.rollbackLocked(txID)
}
