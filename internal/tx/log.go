package tx

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"wls/internal/kv"
	"wls/internal/wire"
)

// RecordKind distinguishes coordinator log entries.
type RecordKind byte

// Log record kinds.
const (
	// RecordCommit is written after all participants voted yes — the
	// transaction's durable decision point.
	RecordCommit RecordKind = iota + 1
	// RecordDone is written after phase two completed everywhere; the
	// transaction needs no recovery.
	RecordDone
)

// Record is one coordinator log entry.
type Record struct {
	TxID string
	Kind RecordKind
}

// Log persists coordinator decisions. Append must be durable before it
// returns (fsync semantics for the file implementation).
type Log interface {
	Append(r Record) error
	Records() ([]Record, error)
}

// MemLog is an in-process Log for tests and for servers that accept losing
// in-doubt transactions on crash.
type MemLog struct {
	mu   sync.Mutex
	recs []Record
}

// NewMemLog returns an empty in-memory log.
func NewMemLog() *MemLog { return &MemLog{} }

// Append implements Log.
func (l *MemLog) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, r)
	return nil
}

// Records implements Log.
func (l *MemLog) Records() ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Record(nil), l.recs...), nil
}

// FileLog is a durable, append-only coordinator log ("tlog" in WebLogic
// terms). Each record is one wire frame; a torn final record (crash during
// append) is cut off when the log is next opened, so the records appended
// after the restart follow the last whole one.
type FileLog struct {
	mu   sync.Mutex
	f    kv.File
	sync bool
}

// OpenFileLog opens (creating if needed) a transaction log at path. When
// syncEvery is true every append is fsynced — the durable configuration;
// benchmarks can disable it to isolate the fsync cost.
func OpenFileLog(path string, syncEvery bool) (*FileLog, error) {
	return OpenFileLogFS(kv.OSFS(), path, syncEvery)
}

// OpenFileLogFS is OpenFileLog on a given filesystem (the transaction crash
// sweep runs the log and its stores on one kvtest.CrashFS).
func OpenFileLogFS(fsys kv.FS, path string, syncEvery bool) (*FileLog, error) {
	f, err := kv.OpenLog(fsys, path, os.O_RDWR|os.O_APPEND)
	if err != nil {
		return nil, err
	}
	l := &FileLog{f: f, sync: syncEvery}
	_, whole, err := l.scan()
	if err == nil {
		err = f.Truncate(whole) // cuts a torn final record, if any
	}
	if err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return l, nil
}

// Append implements Log.
func (l *FileLog) Append(r Record) error {
	e := wire.AcquireEncoder()
	defer e.Release()
	e.Byte(byte(r.Kind))
	e.String(r.TxID)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := wire.WriteFrame(l.f, wire.Frame{Kind: wire.KindOneWay, Body: e.Bytes()}); err != nil {
		return err
	}
	if l.sync {
		return l.f.Sync()
	}
	return nil
}

// Records implements Log.
func (l *FileLog) Records() ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	recs, _, err := l.scan()
	return recs, err
}

// scan reads the log from the start and returns its records and the
// offset at which the last whole frame ends.
func (l *FileLog) scan() (recs []Record, whole int64, err error) {
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	defer l.f.Seek(0, io.SeekEnd) //nolint:errcheck // append mode restores position
	fr := wire.NewFrameReader(bufio.NewReader(l.f))
	for {
		f, err := fr.Next()
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return recs, whole, nil // the end, or a torn tail from a crash mid-append
		}
		if err != nil {
			return recs, whole, err
		}
		d := wire.NewDecoder(f.Body)
		r := Record{Kind: RecordKind(d.Byte()), TxID: d.String()}
		if d.Err() != nil {
			return recs, whole, fmt.Errorf("tx: corrupt log record: %v", d.Err())
		}
		recs = append(recs, r)
		whole += int64(f.WireSize())
	}
}

// Close closes the underlying file.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
