package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"strings"
	"sync"

	"wls/internal/metrics"
	"wls/internal/wire"
)

// WAL is the write-ahead-log backend, modeled on SQLite's WAL design
// (stdlib only — no cgo, no SQL): committed batches append *frames* to a
// side log; a *checkpoint* folds the accumulated frames into the
// page-organized main file and resets the log; recovery loads the main
// file, then replays the log and stops at the first frame whose chained
// checksum fails — the torn-frame detector that makes a crash mid-append
// indistinguishable from a clean stop at the previous commit.
//
// On-disk layout:
//
//	<path>      main file: header page + fixed-size data pages, each page
//	            ending in a CRC-64 of its payload; the pages carry the
//	            record stream (flat key space\x00key / value pairs, in
//	            flat-key order) of the image as of generation G.
//	<path>-wal  write-ahead log: header {magic, version, generation, salt,
//	            crc} then frames {len, seq, chained crc, op batch}. The
//	            generation ties the log to the main file it extends: a
//	            crash between "rename new main file" and "reset log"
//	            leaves a log whose generation is stale, and recovery
//	            discards it (every frame in it was checkpointed into the
//	            main file it no longer matches).
//
// Each frame's checksum chains from its predecessor's (the header's for
// the first frame), with the salt folded into the header checksum — so a
// frame surviving from an older log incarnation can never validate against
// a newer header, and a torn tail fails its own checksum.
type WAL struct {
	path    string
	walPath string
	opts    Options
	fs      FS

	// Counters, resolved once: a lookup by name takes the registry's lock,
	// and Apply counts with mu held.
	appends, syncs, checkpoints *metrics.Counter

	// mu guards the WAL file and the checkpoint swap, and is held across
	// the fsync. The image has a lock of its own, taken by a commit only to
	// apply its ops once they are durable, so no read waits for a flush:
	// the image is written only with mu held.
	//
	//wls:lockorder kv.WAL.mu<kv.Image.mu
	mu       sync.Mutex
	wal      File
	img      *Image
	closed   bool
	gen      uint64
	salt     uint64
	seq      uint64
	prevSum  uint64
	walSize  int64
	pageSize int
	ckptAt   int64 // auto-checkpoint threshold; <0 disables
	// failed is the first error of a log write or sync, or of a
	// checkpoint's directory sync or log reset. After it the files on disk
	// may not be the ones this WAL's state describes, so every later Apply
	// refuses with it.
	failed error
}

const (
	mainMagic = "WLSKVDB1"
	walMagic  = "WLSKVWAL"
	kvVersion = 1

	mainHeaderLen = 8 + 4 + 4 + 8 + 8 + 8 + 8 // magic, version, pageSize, gen, records, payloadLen, crc
	walHeaderLen  = 8 + 4 + 8 + 8 + 8         // magic, version, gen, salt, crc
	frameHdrLen   = 4 + 8 + 8                 // payload len, seq, chained crc

	defaultPageSize    = 4096
	defaultCkptBytes   = 1 << 20
	maxWALFramePayload = wire.MaxFrameSize
)

var crcTab = crc64.MakeTable(crc64.ECMA)

// Options configures the WAL backend.
type Options struct {
	// SyncEveryCommit fsyncs every committed batch (the durable default
	// for anything carrying transaction votes). Benchmarks disable it to
	// isolate the fsync cost.
	SyncEveryCommit bool
	// Metrics receives the backend's counters (kv.appends, kv.syncs,
	// kv.checkpoints). Nil allocates a private registry.
	Metrics *metrics.Registry
	// FS substitutes the filesystem (crash-chaos tests). Nil means the
	// operating system.
	FS FS
	// CheckpointBytes is the WAL size at which the log is folded into the
	// main file automatically. 0 selects 1 MiB; negative disables
	// auto-checkpointing (explicit Checkpoint only).
	//
	//wls:nolint unreached -- test hook: TestCrashChaosSweep
	CheckpointBytes int64
}

// encodeKey appends the flat key of space and key, space\x00key, as one
// length-prefixed string: the bytes wire.Encoder.String writes for it.
func encodeKey(e *wire.Encoder, space, key string) {
	e.Uint64(uint64(len(space) + 1 + len(key)))
	e.Raw(space)
	e.Byte(0)
	e.Raw(key)
}

// decodeKey reads a flat key written by encodeKey and splits it at its
// first NUL; ok is false if it has none, and space is then all of it. The
// space and key share the decoded string.
func decodeKey(d *wire.Decoder) (space, key string, ok bool) {
	return strings.Cut(d.String(), "\x00")
}

// encodeOps appends the op stream encoding of ops to e.
func encodeOps(e *wire.Encoder, ops []Op) {
	e.Int(len(ops))
	for _, op := range ops {
		e.Byte(byte(op.Kind))
		encodeKey(e, op.Space, op.Key)
		if op.Kind == OpPut {
			e.String(op.Value)
		}
	}
}

// decodeOps reads an op stream written by encodeOps.
func decodeOps(d *wire.Decoder) ([]Op, error) {
	n := d.Count(2) // an op is a kind and a key at least
	if d.Err() != nil {
		return nil, corruptf("op stream count: %v", d.Err())
	}
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		op := Op{Kind: OpKind(d.Byte())}
		var spaced bool
		op.Space, op.Key, spaced = decodeKey(d)
		switch op.Kind {
		case OpPut:
			op.Value = d.String()
		case OpDelete:
		default:
			return nil, corruptf("op kind %d", op.Kind)
		}
		if d.Err() != nil {
			return nil, corruptf("op stream: %v", d.Err())
		}
		if !spaced {
			return nil, corruptf("op stream: key %q names no space", op.Space)
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// OpenWAL opens (or creates) a WAL-backed store at path. Recovery order:
// load the main file (verifying every page checksum), then replay the
// write-ahead log's frames, truncating at the first torn or corrupt one.
// A file that is not a WAL main file — say an append-only .store left by
// an earlier build — is refused with ErrCorrupt, never read as empty.
func OpenWAL(path string, opts Options) (*WAL, error) {
	w := &WAL{
		path:     path,
		walPath:  path + "-wal",
		opts:     opts,
		fs:       opts.FS,
		img:      newImage(),
		pageSize: defaultPageSize,
		ckptAt:   opts.CheckpointBytes,
	}
	if w.fs == nil {
		w.fs = OSFS()
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	w.appends, w.syncs, w.checkpoints = reg.Counter("kv.appends"), reg.Counter("kv.syncs"), reg.Counter("kv.checkpoints")
	if w.ckptAt == 0 {
		w.ckptAt = defaultCkptBytes
	}
	if err := w.loadMain(); err != nil {
		return nil, err
	}
	if err := w.openWAL(); err != nil {
		return nil, err
	}
	return w, nil
}

// loadMain reads the page-organized main file into the image. A missing
// or empty main file is a fresh store at generation 0.
func (w *WAL) loadMain() error {
	f, err := w.fs.OpenFile(w.path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() == 0 {
		w.gen = 0
		return nil
	}
	if st.Size() < int64(w.pageSize) {
		return corruptf("main file %d bytes, smaller than a header page", st.Size())
	}
	hdr := make([]byte, mainHeaderLen)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return err
	}
	if string(hdr[:8]) != mainMagic {
		return corruptf("main file magic %q", hdr[:8])
	}
	version := binary.BigEndian.Uint32(hdr[8:12])
	pageSize := binary.BigEndian.Uint32(hdr[12:16])
	gen := binary.BigEndian.Uint64(hdr[16:24])
	records := binary.BigEndian.Uint64(hdr[24:32])
	payloadLen := binary.BigEndian.Uint64(hdr[32:40])
	sum := binary.BigEndian.Uint64(hdr[40:48])
	if got := crc64.Checksum(hdr[:40], crcTab); got != sum {
		return corruptf("main header checksum %x != %x", got, sum)
	}
	if version != kvVersion {
		return corruptf("main file version %d", version)
	}
	if int(pageSize) != w.pageSize {
		// The file knows its own geometry; follow it.
		w.pageSize = int(pageSize)
	}
	// Skip the rest of the header page.
	if _, err := f.Seek(int64(w.pageSize), io.SeekStart); err != nil {
		return err
	}
	payloadPerPage := w.pageSize - 8
	payload := make([]byte, 0, payloadLen)
	page := make([]byte, w.pageSize)
	for remaining := int64(payloadLen); remaining > 0; {
		if _, err := io.ReadFull(f, page); err != nil {
			return corruptf("main file short page: %v", err)
		}
		body := page[:payloadPerPage]
		want := binary.BigEndian.Uint64(page[payloadPerPage:])
		if got := crc64.Checksum(body, crcTab); got != want {
			return corruptf("main page checksum %x != %x", got, want)
		}
		n := int64(payloadPerPage)
		if n > remaining {
			n = remaining
		}
		payload = append(payload, body[:n]...)
		remaining -= n
	}
	d := wire.NewDecoder(payload)
	for i := uint64(0); i < records; i++ {
		space, key, spaced := decodeKey(d)
		val := d.String()
		if d.Err() != nil {
			return corruptf("main record stream: %v", d.Err())
		}
		if !spaced {
			return corruptf("main record stream: key %q names no space", space)
		}
		w.img.apply([]Op{{Kind: OpPut, Space: space, Key: key, Value: val}})
	}
	w.gen = gen
	return nil
}

// walHeader renders the log header for the given generation and salt.
func walHeader(gen, salt uint64) []byte {
	hdr := make([]byte, walHeaderLen)
	copy(hdr, walMagic)
	binary.BigEndian.PutUint32(hdr[8:12], kvVersion)
	binary.BigEndian.PutUint64(hdr[12:20], gen)
	binary.BigEndian.PutUint64(hdr[20:28], salt)
	binary.BigEndian.PutUint64(hdr[28:36], crc64.Checksum(hdr[:28], crcTab))
	return hdr
}

// openWAL opens the log, replays valid frames onto the image, and leaves
// the file positioned for appends. A missing, garbled, or stale-generation
// log is reset — garbled means it never carried a durable commit (the
// header is durable before any frame is), stale means every frame it holds
// was already checkpointed into the main file.
func (w *WAL) openWAL() error {
	f, err := OpenLog(w.fs, w.walPath, os.O_RDWR)
	if err != nil {
		return err
	}
	w.wal = f
	hdr := make([]byte, walHeaderLen)
	_, err = io.ReadFull(f, hdr)
	valid := err == nil &&
		string(hdr[:8]) == walMagic &&
		binary.BigEndian.Uint32(hdr[8:12]) == kvVersion &&
		binary.BigEndian.Uint64(hdr[28:36]) == crc64.Checksum(hdr[:28], crcTab) &&
		binary.BigEndian.Uint64(hdr[12:20]) == w.gen
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return err
	}
	if !valid {
		return w.resetWALLocked(err != io.EOF) // io.EOF: the file is empty
	}
	w.salt = binary.BigEndian.Uint64(hdr[20:28])
	w.prevSum = binary.BigEndian.Uint64(hdr[28:36])
	w.seq = 0
	good := int64(walHeaderLen)
	fh := make([]byte, frameHdrLen)
	torn := false
	for {
		if _, err := io.ReadFull(f, fh); err != nil {
			if err == io.EOF {
				break
			}
			if err == io.ErrUnexpectedEOF {
				torn = true
				break
			}
			return err
		}
		plen := binary.BigEndian.Uint32(fh[0:4])
		seq := binary.BigEndian.Uint64(fh[4:12])
		sum := binary.BigEndian.Uint64(fh[12:20])
		if plen == 0 || plen > maxWALFramePayload || seq != w.seq+1 {
			torn = true
			break
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(f, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				torn = true
				break
			}
			return err
		}
		if frameSum(w.prevSum, seq, payload) != sum {
			torn = true
			break
		}
		ops, err := decodeOps(wire.NewDecoder(payload))
		if err != nil {
			torn = true
			break
		}
		w.img.apply(ops)
		w.seq = seq
		w.prevSum = sum
		good += int64(frameHdrLen) + int64(plen)
	}
	if torn {
		if err := f.Truncate(good); err != nil {
			return err
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		return err
	}
	w.walSize = good
	return nil
}

// resetWALLocked truncates the log and writes a fresh header tied to the
// current main-file generation, synced if discarded says the reset threw
// bytes away. Caller holds w.mu (or is in Open).
func (w *WAL) resetWALLocked(discarded bool) error {
	w.salt = crc64.Checksum(binary.BigEndian.AppendUint64(
		binary.BigEndian.AppendUint64(nil, w.salt), w.gen), crcTab)
	if err := w.wal.Truncate(0); err != nil {
		return err
	}
	if _, err := w.wal.Seek(0, io.SeekStart); err != nil {
		return err
	}
	hdr := walHeader(w.gen, w.salt)
	if _, err := w.wal.Write(hdr); err != nil {
		return err
	}
	// The header must be durable before any frame chains off it. Over an
	// empty file the first commit's sync makes it so, and a crash before
	// that loses nothing: the file held nothing. A reset that discarded
	// bytes syncs now, or a crash could bring them back under a header they
	// chain from (a reset at open salts with crc(0, gen) every time).
	if discarded {
		if err := w.wal.Sync(); err != nil {
			return err
		}
	}
	w.prevSum = binary.BigEndian.Uint64(hdr[28:36])
	w.seq = 0
	w.walSize = walHeaderLen
	return nil
}

// frameSum chains a frame's checksum off its predecessor's.
func frameSum(prev, seq uint64, payload []byte) uint64 {
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[0:8], prev)
	binary.BigEndian.PutUint64(hdr[8:16], seq)
	sum := crc64.Update(0, crcTab, hdr[:])
	return crc64.Update(sum, crcTab, payload)
}

// Image implements Store.
func (w *WAL) Image() *Image { return w.img }

// Put implements Store.
//
//wls:nolint unreached -- benchmark: benchmark/trace.go forwards kv.Store.Put
func (w *WAL) Put(key string, value []byte) error {
	return applyFlat(w, OpPut, key, string(value))
}

// Delete implements Store.
//
//wls:nolint unreached -- benchmark: benchmark/trace.go forwards kv.Store.Delete
func (w *WAL) Delete(key string) error { return applyFlat(w, OpDelete, key, "") }

// Apply implements Store: one frame per batch, atomic by checksum — a
// crash mid-append leaves a frame that fails validation and is truncated
// on recovery, so either every op of the batch survives or none does. The
// frame is built in one pooled buffer and appended with one write. The
// image takes the ops once the frame is durable: a reader sees the batch
// no earlier than a crash would keep it.
func (w *WAL) Apply(ops []Op) error {
	if err := checkOps(ops); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.failed != nil {
		return w.failed
	}
	e := wire.AcquireEncoder()
	defer e.Release()
	for i := 0; i < frameHdrLen; i++ {
		e.Byte(0) // the header's place; filled in once the payload is known
	}
	encodeOps(e, ops)
	frame := e.Bytes()
	payload := frame[frameHdrLen:]
	seq := w.seq + 1
	sum := frameSum(w.prevSum, seq, payload)
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint64(frame[4:12], seq)
	binary.BigEndian.PutUint64(frame[12:20], sum)
	// A frame that failed to write or sync may still be in the log, and
	// the next one would reuse its sequence number: the WAL stops.
	if _, err := w.wal.Write(frame); err != nil {
		return w.stop(err)
	}
	w.appends.Inc()
	if w.opts.SyncEveryCommit {
		w.syncs.Inc()
		if err := w.wal.Sync(); err != nil {
			return w.stop(err)
		}
	}
	w.seq = seq
	w.prevSum = sum
	w.walSize += int64(frameHdrLen) + int64(len(payload))
	w.img.apply(ops) // the image keeps each string as it is given
	if w.ckptAt > 0 && w.walSize >= w.ckptAt {
		return w.checkpointLocked()
	}
	return nil
}

// checkpointLocked writes the image as a fresh page file at generation+1,
// atomically swaps it in, then resets the log. Crash windows, in order:
// before the rename the old main+log pair is untouched; between the
// rename and the log reset the log's generation is stale and recovery
// discards it (its frames are all inside the new main file); a torn log
// header is rewritten. A failed directory sync stops the WAL before the
// generation moves: the rename may yet be lost, and the log it would leave
// beside the old main file must still be that file's. Caller holds w.mu.
func (w *WAL) checkpointLocked() error {
	tmpPath := w.path + ".ckpt"
	tmp, err := w.fs.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	abort := func(err error) error {
		tmp.Close()
		if rerr := w.fs.Remove(tmpPath); rerr != nil {
			return fmt.Errorf("%w (and removing %s: %v)", err, tmpPath, rerr)
		}
		return err
	}
	// Record stream in flat-key order, space\x00key — space by space, then
	// key by key, as no space name holds a NUL: deterministic page images.
	// Only a commit, which holds w.mu, changes the image.
	e := wire.NewEncoder(4096)
	records := uint64(0)
	for _, space := range w.img.Spaces() {
		w.img.Scan(space, "", func(k, v string) bool {
			encodeKey(e, space, k)
			e.String(v)
			records++
			return true
		})
	}
	payload := e.Bytes()
	newGen := w.gen + 1

	hdr := make([]byte, mainHeaderLen)
	copy(hdr, mainMagic)
	binary.BigEndian.PutUint32(hdr[8:12], kvVersion)
	binary.BigEndian.PutUint32(hdr[12:16], uint32(w.pageSize))
	binary.BigEndian.PutUint64(hdr[16:24], newGen)
	binary.BigEndian.PutUint64(hdr[24:32], records)
	binary.BigEndian.PutUint64(hdr[32:40], uint64(len(payload)))
	binary.BigEndian.PutUint64(hdr[40:48], crc64.Checksum(hdr[:40], crcTab))
	page := make([]byte, w.pageSize)
	copy(page, hdr)
	if _, err := tmp.Write(page); err != nil {
		return abort(err)
	}
	payloadPerPage := w.pageSize - 8
	for off := 0; off < len(payload); off += payloadPerPage {
		for i := range page {
			page[i] = 0
		}
		copy(page[:payloadPerPage], payload[off:])
		binary.BigEndian.PutUint64(page[payloadPerPage:], crc64.Checksum(page[:payloadPerPage], crcTab))
		if _, err := tmp.Write(page); err != nil {
			return abort(err)
		}
	}
	if err := tmp.Sync(); err != nil {
		return abort(err)
	}
	if err := w.fs.Rename(tmpPath, w.path); err != nil {
		return abort(err)
	}
	// The new main file is live; the staging handle is no longer needed
	// (the main file is only read at open and rewritten at checkpoint).
	if err := w.fs.SyncDir(w.path); err != nil {
		return errors.Join(w.stop(fmt.Errorf("kv: checkpoint dir sync: %w", err)), tmp.Close())
	}
	var errs []error
	if err := tmp.Close(); err != nil {
		errs = append(errs, fmt.Errorf("kv: closing checkpoint file: %w", err))
	}
	w.gen = newGen
	w.checkpoints.Inc()
	if err := w.resetWALLocked(true); err != nil {
		errs = append(errs, w.stop(fmt.Errorf("kv: resetting wal after checkpoint: %w", err)))
	}
	return errors.Join(errs...)
}

// stop makes err the WAL's sticky failure and returns it. Caller holds w.mu.
func (w *WAL) stop(err error) error {
	w.failed = err
	return err
}

// Close implements Store.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.wal.Close()
}
