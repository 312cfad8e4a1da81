package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"wls/internal/kv"
	"wls/internal/tx"
)

// device is the benchmark's storage model. Every write and every fsync
// still happens, on a real directory; each flush then waits until a fixed
// floor from its entry has elapsed. The real fsync on the shared disk
// drifts by tens of percent between runs minutes apart, which moved
// checkout throughput by a third with no code change; behind the floor the
// flush cost is the same on every run, so a change in flush COUNT or in
// what is held across a flush still shows and disk drift does not.
//
// The wait parks the goroutine on a timerfd read through the Go netpoller,
// the way a network wait does. Clock.Sleep cannot hit a sub-millisecond
// deadline here (the runtime rounds timer sleeps up to whole milliseconds,
// which would add the drifting fsync time on top again), and a blocking
// nanosleep keeps its scheduler slot (P) until sysmon takes it back, which
// on two cores halved the capacity left for every other request at random.
type device struct {
	floor time.Duration
	t     *tracer

	mu   sync.Mutex
	free []*os.File // idle timerfds
}

// timer returns an idle timerfd, creating one if none is free.
func (d *device) timer() (*os.File, error) {
	d.mu.Lock()
	if n := len(d.free); n > 0 {
		f := d.free[n-1]
		d.free = d.free[:n-1]
		d.mu.Unlock()
		return f, nil
	}
	d.mu.Unlock()
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0x800, 0x80000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return os.NewFile(fd, "timerfd"), nil // non-blocking, so the file is pollable
}

func (d *device) waitFloor(entry int64) error {
	rem := int64(d.floor) - (now() - entry)
	if rem <= 0 {
		return nil
	}
	f, err := d.timer()
	if err != nil {
		return err
	}
	// struct itimerspec{it_interval, it_value}: one shot after rem.
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(rem)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, f.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return errors.Join(fmt.Errorf("timerfd_settime: %w", errno), f.Close())
	}
	var expirations [8]byte
	if _, err := f.Read(expirations[:]); err != nil {
		return errors.Join(fmt.Errorf("timerfd read: %w", err), f.Close())
	}
	d.mu.Lock()
	d.free = append(d.free, f)
	d.mu.Unlock()
	return nil
}

// close releases the idle timerfds.
func (d *device) close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var errs []error
	for _, f := range d.free {
		errs = append(errs, f.Close())
	}
	d.free = nil
	return errors.Join(errs...)
}

// fs returns the kv.FS the WAL stores run on.
func (d *device) fs() kv.FS { return floorFS{FS: kv.OSFS(), d: d} }

// settle applies the floor to a flush that began at entry and returned err.
func (d *device) settle(entry int64, err error) error {
	if werr := d.waitFloor(entry); err == nil {
		err = werr
	}
	return err
}

type floorFS struct {
	kv.FS
	d *device
}

func (f floorFS) OpenFile(name string, flag int, perm os.FileMode) (kv.File, error) {
	inner, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &floorFile{File: inner, d: f.d}, nil
}

type floorFile struct {
	kv.File
	d *device
}

func (f *floorFile) Sync() error {
	entry := now()
	start := f.d.t.begin()
	err := f.d.settle(entry, f.File.Sync())
	f.d.t.end(spFSSync, 0, start, 0)
	return err
}

func (f *floorFile) Write(p []byte) (int, error) {
	start := f.d.t.begin()
	n, err := f.File.Write(p)
	f.d.t.end(spFSWrite, 0, start, n)
	return n, err
}

// floorLog is the coordinator log behind the same device: FileLog.Append
// writes and fsyncs, then the floor applies.
type floorLog struct {
	tx.Log
	d *device
}

func (l floorLog) Append(r tx.Record) error {
	entry := now()
	start := l.d.t.begin()
	err := l.d.settle(entry, l.Log.Append(r))
	l.d.t.end(spTxLog, 0, start, 0)
	return err
}
