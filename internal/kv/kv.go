// Package kv is the bottom layer of the persistence stack: a flat,
// byte-ordered key-value store with atomic batch commit. Everything above
// it — the tuple layer (internal/tuple: named spaces with XA sessions) and
// the table layer (internal/store: versioned rows, triggers, change log) —
// is written once against this interface, so swapping the durability
// engine under the middle tier is a constructor change, not a rewrite.
// That is the shape §3.3 and §5.1 of the paper assume: middle-tier data
// "is accessed only in limited ways, e.g., by key or through a sequential
// scan", so the narrow waist of the stack is exactly Get/Put/Delete/Scan
// plus an atomic batch — and View, a Get without the copy, through which
// the table layer reads its rows from the image instead of keeping them.
//
// Two backends ship with the package:
//
//   - Mem (mem.go): an in-memory ordered map. No durability; the baseline
//     the durable backend is benchmarked against (E32).
//   - WAL (wal.go): a page-organized main file plus a write-ahead log with
//     per-frame chained checksums, modeled on SQLite's WAL design:
//     commits append frames; checkpoints fold the log into the main file;
//     recovery replays the WAL and stops at the first torn frame.
//
// Both pass the same conformance suite (conformance_test.go), and the WAL
// passes the seeded crash-chaos suite (chaos_test.go); a future backend
// plugs into the same two suites.
package kv

import (
	"errors"
	"fmt"
)

// Errors shared by all backends.
var (
	// ErrClosed is returned by mutations after Close.
	ErrClosed = errors.New("kv: closed")
	// ErrCorrupt wraps unrecoverable on-disk corruption found on open:
	// a bad magic number, an unreadable header, or a main-file page whose
	// checksum does not match. (A torn WAL *tail* is not corruption
	// — it is the expected shape of a crash and is truncated silently.)
	ErrCorrupt = errors.New("kv: corrupt store")
)

// OpKind distinguishes batch operations.
type OpKind byte

// Batch operation kinds.
const (
	OpPut OpKind = iota + 1
	OpDelete
)

// Op is one operation of an atomic batch.
type Op struct {
	Kind OpKind
	Key  string
	// Value is a put's value, "" for OpDelete. A string cannot change, so
	// the backend keeps it as it is given: the image's copy is the caller's.
	Value string
}

// Store is a flat key-value store ordered by the byte order of its keys.
//
// Concurrency: every method is safe for concurrent use. Scan holds the
// store's internal lock while invoking fn; fn must not call back into the
// store. No read waits for a commit's flush.
//
// Ownership: values are immutable strings. View and Scan hand out the
// backend's own, Get a copy the caller owns; Put copies its value on
// entry, so the caller may reuse its buffer.
type Store interface {
	// Get returns the value for key.
	Get(key string) ([]byte, bool)
	// View returns the value for key without copying it: the backend's own
	// string, which a later write replaces but never changes. key is only
	// read during the call, so a caller may pass a reused buffer.
	View(key []byte) (string, bool)
	// Scan visits every key with the given prefix in ascending byte
	// order; fn returning false stops the scan early. An empty prefix
	// scans the whole store.
	Scan(prefix string, fn func(key, value string) bool)
	// Count returns the number of keys with the given prefix.
	Count(prefix string) int
	// Put durably commits key=value.
	Put(key string, value []byte) error
	// Delete durably removes key. Deleting a missing key is a no-op.
	Delete(key string) error
	// Apply durably commits ops as one atomic batch: after a crash either
	// every op is visible or none is. Ops apply in order, so a later op
	// on the same key wins.
	Apply(ops []Op) error
	// Close releases the backend. Further mutations return ErrClosed;
	// reads keep serving the final in-memory image.
	Close() error
}

// Checkpointer is implemented by backends with a separate write-ahead log
// that can be folded into the main file (the WAL backend).
type Checkpointer interface {
	Checkpoint() error
}

// Sizer reports the on-disk footprint of a durable backend.
type Sizer interface {
	Size() (int64, error)
}

// corruptf builds an ErrCorrupt with detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}
