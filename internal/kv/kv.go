// Package kv is the bottom layer of the persistence stack: a key-value
// store of named spaces, each ordered by the byte order of its keys, with
// atomic batch commit across spaces. Everything above it — the tuple layer
// (internal/tuple: XA sessions over the spaces) and the table layer
// (internal/store: versioned rows, triggers, change log) — is written once
// against this interface, so swapping the durability engine under the
// middle tier is a constructor change, not a rewrite. That is the shape
// §3.3 and §5.1 of the paper assume: middle-tier data "is accessed only in
// limited ways, e.g., by key or through a sequential scan", so the narrow
// waist of the stack is an atomic batch to write and an Image to read:
// View by (space, key) without a copy, through which the table layer
// reads its rows in place, and Scan of a space by key prefix.
//
// Two backends ship with the package, and both serve reads from the same
// Image (image.go):
//
//   - Mem (mem.go): the image and nothing else. No durability; the
//     baseline the durable backend is benchmarked against (E32).
//   - WAL (wal.go): a page-organized main file plus a write-ahead log with
//     per-frame chained checksums, modeled on SQLite's WAL design:
//     commits append frames; checkpoints fold the log into the main file;
//     recovery replays the WAL and stops at the first torn frame. On disk
//     a key is flat, space\x00key, as it has been since before the image
//     was keyed by space.
//
// Both pass the same conformance suite (conformance_test.go), and the WAL
// passes the seeded crash-chaos suite (chaos_test.go); a future backend
// plugs into the same two suites.
package kv

import (
	"errors"
	"fmt"
	"strings"
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
	// Space names the keyspace; it may not hold a NUL, which ends it in
	// the flat key a WAL frame spells. Key is the key within it.
	Space string
	Key   string
	// Value is a put's value, "" for OpDelete. A string cannot change, so
	// the backend keeps it as it is given: the image's copy is the caller's.
	Value string
}

// Store is a store of spaces, each ordered by the byte order of its keys.
//
// Concurrency: every method is safe for concurrent use. No read waits for
// a commit's flush.
//
// Ownership: the image keeps the strings of every op as they are given,
// and hands its values out as they are; Put copies its value on entry, so
// the caller may reuse its buffer.
type Store interface {
	// Image returns the live data, which every read goes to. It is the
	// backend's own, concrete type, so a read is a plain call.
	Image() *Image
	// Apply durably commits ops as one atomic batch: after a crash either
	// every op is visible or none is. Ops apply in order, so a later op
	// on the same key wins.
	Apply(ops []Op) error
	// Put durably commits value under a flat key, space\x00key, split at
	// its first NUL. A key with no NUL names no space and is refused.
	Put(key string, value []byte) error
	// Delete durably removes the entry a flat key names, as Put reads it.
	// Deleting a missing key is a no-op.
	Delete(key string) error
	// Close releases the backend. Further mutations return ErrClosed;
	// reads keep serving the final image.
	Close() error
}

// corruptf builds an ErrCorrupt with detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// applyFlat applies the op of a flat key, split at its first NUL
// (Store.Put and Store.Delete).
func applyFlat(s Store, kind OpKind, flat, value string) error {
	space, key, ok := strings.Cut(flat, "\x00")
	if !ok {
		return fmt.Errorf("kv: key %q names no space", flat)
	}
	return s.Apply([]Op{{Kind: kind, Space: space, Key: key, Value: value}})
}

// checkOps refuses a batch naming a space that holds a NUL: on disk the
// space would end at it, and the key would come back in another space.
func checkOps(ops []Op) error {
	for i := range ops {
		if strings.IndexByte(ops[i].Space, 0) >= 0 {
			return fmt.Errorf("kv: space %q holds a NUL", ops[i].Space)
		}
	}
	return nil
}
