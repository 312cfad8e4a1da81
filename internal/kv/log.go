package kv

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"wls/internal/metrics"
	"wls/internal/wire"
)

// Options configures a durable backend.
type Options struct {
	// SyncEveryCommit fsyncs every committed batch (the durable default
	// for anything carrying transaction votes). Benchmarks disable it to
	// isolate the fsync cost.
	SyncEveryCommit bool
	// Metrics receives the backend's counters (kv.appends, kv.syncs,
	// kv.compactions, kv.checkpoints, ...). Nil allocates a private
	// registry.
	Metrics *metrics.Registry
	// FS substitutes the filesystem (crash-chaos tests). Nil means the
	// operating system.
	FS FS
	// PageSize is the WAL backend's main-file page size. 0 selects 4096.
	PageSize int
	// CheckpointBytes is the WAL size at which the WAL backend folds the
	// log into the main file automatically. 0 selects 1 MiB; negative
	// disables auto-checkpointing (explicit Checkpoint only).
	CheckpointBytes int64
}

func (o Options) fs() FS {
	if o.FS == nil {
		return OSFS()
	}
	return o.FS
}

func (o Options) metrics() *metrics.Registry {
	if o.Metrics == nil {
		return metrics.NewRegistry()
	}
	return o.Metrics
}

// Log is the append-only backend: one file, one length-prefixed frame per
// committed batch, replayed front to back on open. A torn final frame —
// the footprint of a crash mid-append — is truncated away. Compact
// rewrites the live image into a fresh file and atomically swaps it in,
// bounding growth under overwrite-heavy workloads.
type Log struct {
	path string
	opts Options
	fs   FS
	reg  *metrics.Registry

	// mu guards the file and the image; appends and counter bumps happen
	// while it is held.
	//
	//wls:lockorder kv.Log.mu<metrics.Registry.mu
	mu     sync.Mutex
	f      File
	img    *image
	closed bool
}

// frame body layout: a batch record is recBatch followed by an op stream.
const recBatch byte = 1

// encodeOps appends the op stream encoding of ops to e.
func encodeOps(e *wire.Encoder, ops []Op) {
	e.Int(len(ops))
	for _, op := range ops {
		e.Byte(byte(op.Kind))
		e.String(op.Key)
		if op.Kind == OpPut {
			e.Bytes2(op.Value)
		}
	}
}

// decodeOps reads an op stream written by encodeOps.
func decodeOps(d *wire.Decoder) ([]Op, error) {
	n := d.Int()
	if d.Err() != nil || n < 0 || n > 1<<24 {
		return nil, corruptf("op stream count %d", n)
	}
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		op := Op{Kind: OpKind(d.Byte())}
		op.Key = d.String()
		switch op.Kind {
		case OpPut:
			op.Value = d.Bytes()
		case OpDelete:
		default:
			return nil, corruptf("op kind %d", op.Kind)
		}
		if d.Err() != nil {
			return nil, corruptf("op stream: %v", d.Err())
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// OpenLog opens (or creates) an append-only log store at path, replaying
// its frames into memory.
func OpenLog(path string, opts Options) (*Log, error) {
	fsys := opts.fs()
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{path: path, opts: opts, fs: fsys, reg: opts.metrics(), f: f, img: newImage()}
	if err := l.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// replay rebuilds the image, truncating a torn tail so appends restart
// from a clean frame boundary.
func (l *Log) replay() error {
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	br := bufio.NewReaderSize(l.f, 1<<16)
	fr := wire.NewFrameReader(br)
	var good int64 // offset after the last fully-valid frame
	torn := false
	for {
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err == io.ErrUnexpectedEOF || err == wire.ErrBadFrame || err == wire.ErrFrameTooLarge {
			// Cut short, or a header no valid append ever wrote: garbage tail.
			torn = true
			break
		}
		if err != nil {
			return err
		}
		d := wire.NewDecoder(f.Body)
		if d.Byte() != recBatch {
			torn = true
			break
		}
		ops, err := decodeOps(d)
		if err != nil {
			// A frame that length-checks but does not decode is a torn
			// or corrupted tail record; everything before it stands.
			torn = true
			break
		}
		l.img.apply(ops)
		good += int64(f.WireSize())
	}
	if torn {
		if err := l.f.Truncate(good); err != nil {
			return err
		}
	}
	if _, err := l.f.Seek(good, io.SeekStart); err != nil {
		return err
	}
	return nil
}

// appendBatch writes one batch frame, fsyncing if configured. Caller holds
// l.mu.
func (l *Log) appendBatch(ops []Op) error {
	if l.closed {
		return ErrClosed
	}
	e := wire.AcquireEncoder()
	defer e.Release()
	e.Byte(recBatch)
	encodeOps(e, ops)
	if err := wire.WriteFrame(l.f, wire.Frame{Kind: wire.KindOneWay, Body: e.Bytes()}); err != nil {
		return err
	}
	l.reg.Counter("kv.appends").Inc()
	if l.opts.SyncEveryCommit {
		l.reg.Counter("kv.syncs").Inc()
		return l.f.Sync()
	}
	return nil
}

// Get implements Store.
func (l *Log) Get(key string) ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.img.get(key)
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Scan implements Store.
func (l *Log) Scan(prefix string, fn func(key string, value []byte) bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.img.scan(prefix, func(k string, v []byte) bool {
		return fn(k, append([]byte(nil), v...))
	})
}

// Count implements Store.
func (l *Log) Count(prefix string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.img.count(prefix)
}

// Put implements Store.
func (l *Log) Put(key string, value []byte) error {
	return l.Apply([]Op{{Kind: OpPut, Key: key, Value: value}})
}

// Delete implements Store.
func (l *Log) Delete(key string) error {
	return l.Apply([]Op{{Kind: OpDelete, Key: key}})
}

// Apply implements Store: the whole batch is one frame, so it is atomic
// under crash — replay either sees the complete frame or truncates it.
func (l *Log) Apply(ops []Op) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendBatch(ops); err != nil {
		return err
	}
	for _, op := range ops {
		switch op.Kind {
		case OpPut:
			l.img.put(op.Key, append([]byte(nil), op.Value...))
		case OpDelete:
			l.img.del(op.Key)
		}
	}
	return nil
}

// compactChunk bounds how many encoded bytes one compaction frame carries.
const compactChunk = 256 << 10

// Compact rewrites the log so it holds exactly the live image, in key
// order, and atomically replaces the old file.
//
// The dance is deliberate about its crash windows: the snapshot is staged
// to a temporary file and fsynced; the rename is atomic; the handle used
// to write the snapshot FOLLOWS the rename (POSIX), so there is no
// re-open step that could fail and leave the store wedged on a closed
// descriptor; the parent directory is fsynced so the rename itself
// survives a crash; and only then is the old descriptor closed, with its
// error checked — an error there is reported, but the store is already on
// the new file and remains usable.
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	tmpPath := l.path + ".compact"
	tmp, err := l.fs.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	abort := func(err error) error {
		tmp.Close()
		if rerr := l.fs.Remove(tmpPath); rerr != nil {
			return fmt.Errorf("%w (and removing %s: %v)", err, tmpPath, rerr)
		}
		return err
	}
	// Snapshot the image in key order — deterministic output, so two
	// compactions of the same state are byte-identical.
	e := wire.NewEncoder(compactChunk)
	var chunk []Op
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		e.Reset()
		e.Byte(recBatch)
		encodeOps(e, chunk)
		chunk = chunk[:0]
		return wire.WriteFrame(tmp, wire.Frame{Kind: wire.KindOneWay, Body: e.Bytes()})
	}
	var werr error
	bytes := 0
	l.img.scan("", func(k string, v []byte) bool {
		chunk = append(chunk, Op{Kind: OpPut, Key: k, Value: v})
		bytes += len(k) + len(v) + 16
		if bytes >= compactChunk {
			bytes = 0
			if werr = flush(); werr != nil {
				return false
			}
		}
		return true
	})
	if werr == nil {
		werr = flush()
	}
	if werr != nil {
		return abort(fmt.Errorf("kv: compaction write: %w", werr))
	}
	if err := tmp.Sync(); err != nil {
		return abort(err)
	}
	if err := l.fs.Rename(tmpPath, l.path); err != nil {
		return abort(err)
	}
	// The rename happened: from here on the new file is the log and the
	// store swaps onto the still-open staging handle (which followed the
	// rename), whatever the remaining steps report.
	old := l.f
	l.f = tmp
	l.reg.Counter("kv.compactions").Inc()
	// The rename is only durable once the directory entry is; fsync it.
	// And the old descriptor's close error is checked — silently dropping
	// it would hide a failing disk.
	var errs []error
	if err := l.fs.SyncDir(l.path); err != nil {
		errs = append(errs, fmt.Errorf("kv: compaction dir sync: %w", err))
	}
	if err := old.Close(); err != nil {
		errs = append(errs, fmt.Errorf("kv: closing pre-compaction log: %w", err))
	}
	return errors.Join(errs...)
}

// Size implements Sizer.
func (l *Log) Size() (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, err := l.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Close implements Store.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}
