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
// What a crash leaves of the bytes written before it is the CrashFS's
// Mode: every completed write (KeepWritten, the default), or only what a
// Sync made durable (LoseUnsynced), which catches a backend that
// acknowledges before it syncs.
//
// CrashFS also records every operation it sees, so tests can assert the
// exact syscall choreography of crash-sensitive sequences (stage, sync,
// rename, directory sync, close) rather than merely their outcome.
package kvtest

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"wls/internal/kv"
)

// Mode is what a crash leaves of the bytes written before it. Either way,
// create, rename and remove are durable at once.
type Mode int

const (
	// KeepWritten keeps every completed write, synced or not.
	KeepWritten Mode = iota
	// LoseUnsynced puts each file back to its bytes at its last Sync; a
	// file never synced goes back to the bytes it had when first opened,
	// which is empty for a file the CrashFS created.
	LoseUnsynced
)

// Modes lists both modes, for sweeps that run in each.
var Modes = []Mode{KeepWritten, LoseUnsynced}

func (m Mode) String() string {
	if m == LoseUnsynced {
		return "lose-unsynced"
	}
	return "keep-written"
}

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
	// durable holds, under LoseUnsynced, what a crash leaves of each file
	// this CrashFS opened, by its current name.
	durable map[string]*durableFile
}

// durableFile is a file's bytes as of its last Sync. name is its current
// path, "" once it is removed or renamed over.
type durableFile struct {
	name  string
	bytes []byte
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

// SetMode chooses what the crash leaves of unsynced writes. Set it before
// the first OpenFile.
func (c *CrashFS) SetMode(m Mode) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m == LoseUnsynced {
		c.durable = make(map[string]*durableFile)
	} else {
		c.durable = nil
	}
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
		c.restore()
		return true
	}
	c.steps--
	c.mutates++
	return false
}

// restore puts every file back to its durable bytes (LoseUnsynced only).
// Every write, truncate and sync runs under c.mu, so none lands after it.
func (c *CrashFS) restore() {
	for name, d := range c.durable {
		f, err := c.inner.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err == nil {
			_, err = f.Write(d.bytes)
			err = errors.Join(err, f.Close())
		}
		if err != nil {
			panic(fmt.Sprintf("kvtest: restoring %s at the crash: %v", name, err))
		}
	}
}

// read returns the bytes of the file at name, none if it does not exist.
func (c *CrashFS) read(name string) ([]byte, error) {
	f, err := c.inner.OpenFile(name, os.O_RDONLY, 0)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(f)
	return b, errors.Join(err, f.Close())
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
	var d *durableFile
	if c.durable != nil {
		if d = c.durable[name]; d == nil {
			b, err := c.read(name)
			if err != nil {
				return nil, err
			}
			d = &durableFile{name: name, bytes: b}
		}
	}
	f, err := c.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if d != nil {
		c.durable[name] = d
	}
	return &crashFile{fs: c, name: name, f: f, durable: d}, nil
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
	if err := c.inner.Rename(oldname, newname); err != nil {
		return err
	}
	if c.durable != nil {
		c.forget(newname)
		if d := c.durable[oldname]; d != nil {
			delete(c.durable, oldname)
			d.name, c.durable[newname] = newname, d
		}
	}
	return nil
}

// forget stops tracking the file at name: it was removed or renamed over.
func (c *CrashFS) forget(name string) {
	if d := c.durable[name]; d != nil {
		d.name = ""
		delete(c.durable, name)
	}
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
	if err := c.inner.Remove(name); err != nil {
		return err
	}
	c.forget(name)
	return nil
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
// staging file from the file it later replaces. durable is its entry under
// LoseUnsynced, nil otherwise.
type crashFile struct {
	fs      *CrashFS
	name    string
	f       kv.File
	durable *durableFile
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
	defer cf.fs.mu.Unlock()
	dead := cf.fs.crashed
	if cf.fs.step() {
		// Torn write: a prefix of the bytes lands, then the machine dies.
		// A write issued after that (another goroutine's, say) lands
		// nothing, and under LoseUnsynced neither does this one.
		n := len(p) * cf.fs.tearNum / cf.fs.tearDen
		if dead || cf.durable != nil {
			n = 0
		}
		cf.fs.record("write %s %d/%d CRASH", cf.name, n, len(p))
		if n > 0 {
			cf.f.Write(p[:n])
		}
		return n, ErrCrashed
	}
	cf.fs.record("write %s %d", cf.name, len(p))
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
	defer cf.fs.mu.Unlock()
	if cf.fs.step() {
		cf.fs.record("sync %s CRASH", cf.name)
		return ErrCrashed
	}
	cf.fs.record("sync %s", cf.name)
	if err := cf.f.Sync(); err != nil {
		return err
	}
	if d := cf.durable; d != nil && d.name != "" {
		b, err := cf.fs.read(d.name)
		if err != nil {
			return err
		}
		d.bytes = b
	}
	return nil
}

func (cf *crashFile) Truncate(size int64) error {
	cf.fs.mu.Lock()
	defer cf.fs.mu.Unlock()
	if cf.fs.step() {
		cf.fs.record("truncate %s %d CRASH", cf.name, size)
		return ErrCrashed
	}
	cf.fs.record("truncate %s %d", cf.name, size)
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
