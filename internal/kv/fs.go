package kv

import (
	"io"
	"os"
	"path/filepath"
)

// FS is the narrow filesystem surface the durable backends use. The
// default implementation is the operating system; the crash-chaos suite
// substitutes a filesystem with a byte budget that tears the final write
// and fails everything after it, which is how "kill -9 mid-commit" becomes
// a deterministic, seeded test instead of a flaky one.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically replaces newname with oldname (a checkpoint swaps
	// in its staged main file this way).
	Rename(oldname, newname string) error
	// Remove deletes a file; removing a missing file is not an error.
	Remove(name string) error
	// SyncDir fsyncs the directory containing name, making a preceding
	// Rename durable: without it a crash can lose the new directory
	// entry even though the file's blocks are on disk.
	SyncDir(name string) error
}

// File is the per-file surface: sequential reads for replay, appends for
// commits, truncation for torn tails, fsync for durability.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
}

// osFS is the real filesystem.
type osFS struct{}

// OSFS returns the operating-system filesystem, the default for every
// durable backend.
func OSFS() FS { return osFS{} }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (osFS) Remove(name string) error {
	err := os.Remove(name)
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

func (osFS) SyncDir(name string) error {
	d, err := os.Open(filepath.Dir(name))
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// OpenLog opens name (creating it if need be) for a durable log, with
// os.OpenFile's flag. The File's first successful Sync also syncs name's
// directory: POSIX makes a new file's directory entry durable only through
// its directory's fsync (Pillai et al., OSDI 2014), and an open cannot
// tell whether an earlier one created the file and stopped before that
// sync. So each open pays one directory sync, and it rides the first flush.
func OpenLog(fsys FS, name string, flag int) (File, error) {
	f, err := fsys.OpenFile(name, flag|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &logFile{File: f, fs: fsys, name: name}, nil
}

// logFile is a File whose directory entry is made durable by its first
// Sync.
type logFile struct {
	File
	fs    FS
	name  string
	named bool // the directory has been synced since the open
}

func (f *logFile) Sync() error {
	if err := f.File.Sync(); err != nil || f.named {
		return err
	}
	if err := f.fs.SyncDir(f.name); err != nil {
		return err
	}
	f.named = true
	return nil
}
