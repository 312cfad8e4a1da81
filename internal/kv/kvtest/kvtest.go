// Package kvtest provides crash-injection infrastructure for the kv
// backends' chaos suites. The centerpiece is CrashFS: a filesystem with a
// step budget. Every mutating operation (write, sync, truncate, rename,
// remove, directory sync) consumes one step; the operation that exhausts
// the budget "crashes" — a write lands only a prefix of its bytes (a torn
// write), any other operation fails without effect — and everything after
// it fails with ErrCrashed. Sweeping the budget from zero to the
// workload's total step count visits every crash window deterministically,
// turning "kill -9 mid-commit" into a seeded test instead of a flaky one.
//
// CrashFS also records every operation it sees, so tests can assert the
// exact syscall choreography of crash-sensitive sequences (stage, sync,
// rename, directory sync, close) rather than merely their outcome.
package kvtest

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"wls/internal/kv"
)

// ErrCrashed is returned by every operation at and after the simulated
// crash point.
var ErrCrashed = errors.New("kvtest: simulated crash")

// CrashFS wraps a kv.FS with a mutating-operation budget and an operation
// recorder. A budget below zero never crashes (pure recorder).
type CrashFS struct {
	inner kv.FS

	mu      sync.Mutex
	steps   int
	tearNum int // fraction of the crashing write that reaches the file
	tearDen int
	crashed bool
	ops     []string
	mutates int
}

// NewCrashFS wraps inner with a budget of steps mutating operations. The
// default tear fraction is 1/2: the crashing write lands half its bytes.
func NewCrashFS(inner kv.FS, steps int) *CrashFS {
	if inner == nil {
		inner = kv.OSFS()
	}
	return &CrashFS{inner: inner, steps: steps, tearNum: 1, tearDen: 2}
}

// SetTear changes the fraction (num/den) of the crashing write's bytes
// that reach the file — 0/1 tears at the frame boundary, and values close
// to 1 leave almost-complete frames for the checksum to reject.
func (c *CrashFS) SetTear(num, den int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tearNum, c.tearDen = num, den
}

// Crashed reports whether the budget has been exhausted.
func (c *CrashFS) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// MutatingOps reports how many mutating operations have run to completion
// — run a workload with a negative budget and use this as the sweep bound.
func (c *CrashFS) MutatingOps() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mutates
}

// Ops returns a copy of the recorded operation log.
func (c *CrashFS) Ops() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.ops...)
}

func (c *CrashFS) record(format string, args ...any) {
	c.ops = append(c.ops, fmt.Sprintf(format, args...))
}

// step consumes one mutating-op credit. It returns true when this
// operation is the crash point (or the crash already happened).
func (c *CrashFS) step() bool {
	if c.crashed {
		return true
	}
	if c.steps < 0 {
		c.mutates++
		return false
	}
	if c.steps == 0 {
		c.crashed = true
		return true
	}
	c.steps--
	c.mutates++
	return false
}

// OpenFile implements kv.FS. Opens are not mutating ops (a crash at the
// create is indistinguishable on disk from a crash at the first write),
// but they do fail after the crash.
func (c *CrashFS) OpenFile(name string, flag int, perm os.FileMode) (kv.File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.record("open %s %#x", name, flag)
	if c.crashed {
		return nil, ErrCrashed
	}
	f, err := c.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &crashFile{fs: c, name: name, f: f}, nil
}

// Rename implements kv.FS: atomic, so the crash point leaves it undone.
func (c *CrashFS) Rename(oldname, newname string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.step() {
		c.record("rename %s %s CRASH", oldname, newname)
		return ErrCrashed
	}
	c.record("rename %s %s", oldname, newname)
	return c.inner.Rename(oldname, newname)
}

// Remove implements kv.FS.
func (c *CrashFS) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.step() {
		c.record("remove %s CRASH", name)
		return ErrCrashed
	}
	c.record("remove %s", name)
	return c.inner.Remove(name)
}

// SyncDir implements kv.FS.
func (c *CrashFS) SyncDir(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.step() {
		c.record("syncdir %s CRASH", name)
		return ErrCrashed
	}
	c.record("syncdir %s", name)
	return c.inner.SyncDir(name)
}

// crashFile routes every file operation through the budget. The name is
// the path the file was opened under, so the recorded log distinguishes a
// staging file from the file it later replaces.
type crashFile struct {
	fs   *CrashFS
	name string
	f    kv.File
}

func (cf *crashFile) Read(p []byte) (int, error) {
	cf.fs.mu.Lock()
	crashed := cf.fs.crashed
	cf.fs.mu.Unlock()
	if crashed {
		return 0, ErrCrashed
	}
	return cf.f.Read(p)
}

func (cf *crashFile) Write(p []byte) (int, error) {
	cf.fs.mu.Lock()
	dead := cf.fs.crashed
	if cf.fs.step() {
		// Torn write: a prefix of the bytes lands, then the machine dies.
		// A write issued after that (another goroutine's, say) lands nothing.
		n := len(p) * cf.fs.tearNum / cf.fs.tearDen
		if dead {
			n = 0
		}
		cf.fs.record("write %s %d/%d CRASH", cf.name, n, len(p))
		cf.fs.mu.Unlock()
		if n > 0 {
			cf.f.Write(p[:n])
		}
		return n, ErrCrashed
	}
	cf.fs.record("write %s %d", cf.name, len(p))
	cf.fs.mu.Unlock()
	return cf.f.Write(p)
}

func (cf *crashFile) Seek(offset int64, whence int) (int64, error) {
	cf.fs.mu.Lock()
	crashed := cf.fs.crashed
	cf.fs.mu.Unlock()
	if crashed {
		return 0, ErrCrashed
	}
	return cf.f.Seek(offset, whence)
}

func (cf *crashFile) Close() error {
	cf.fs.mu.Lock()
	cf.fs.record("close %s", cf.name)
	crashed := cf.fs.crashed
	cf.fs.mu.Unlock()
	err := cf.f.Close()
	if crashed {
		return ErrCrashed
	}
	return err
}

func (cf *crashFile) Sync() error {
	cf.fs.mu.Lock()
	if cf.fs.step() {
		cf.fs.record("sync %s CRASH", cf.name)
		cf.fs.mu.Unlock()
		return ErrCrashed
	}
	cf.fs.record("sync %s", cf.name)
	cf.fs.mu.Unlock()
	return cf.f.Sync()
}

func (cf *crashFile) Truncate(size int64) error {
	cf.fs.mu.Lock()
	if cf.fs.step() {
		cf.fs.record("truncate %s %d CRASH", cf.name, size)
		cf.fs.mu.Unlock()
		return ErrCrashed
	}
	cf.fs.record("truncate %s %d", cf.name, size)
	cf.fs.mu.Unlock()
	return cf.f.Truncate(size)
}

func (cf *crashFile) Stat() (os.FileInfo, error) {
	cf.fs.mu.Lock()
	crashed := cf.fs.crashed
	cf.fs.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	return cf.f.Stat()
}
