package kv_test

import (
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"wls/internal/kv"
	"wls/internal/kv/kvtest"
)

func openWAL(t *testing.T, dir string, opts kv.Options) *kv.WAL {
	t.Helper()
	w, err := kv.OpenWAL(walPath(dir), opts)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	return w
}

// manualCkpt disables auto-checkpointing so tests control generations.
var manualCkpt = kv.Options{CheckpointBytes: -1}

func TestWALTornFinalFrameTruncated(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir, manualCkpt)
	if err := w.Put("s\x00a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := w.Put("s\x00b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final frame: chop bytes off the end of the log.
	wal := walPath(dir) + "-wal"
	b, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	w2 := openWAL(t, dir, manualCkpt)
	defer w2.Close()
	if _, ok := get(w2, "a"); !ok {
		t.Fatalf("frame before the torn one was lost")
	}
	if _, ok := get(w2, "b"); ok {
		t.Fatalf("torn frame survived recovery")
	}
	// The store keeps working after the truncation.
	if err := w2.Put("s\x00c", []byte("3")); err != nil {
		t.Fatalf("Put after torn-tail recovery: %v", err)
	}
}

func TestWALCorruptMiddleFrameStopsReplay(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir, manualCkpt)
	for _, k := range []string{"a", "b", "c"} {
		if err := w.Put("s\x00"+k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wal := walPath(dir) + "-wal"
	b, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the SECOND frame's payload; the chained checksum
	// rejects it and everything after it, while the first frame stands.
	// Layout: 36-byte header, then frames of 20-byte header + payload.
	const walHdr, frameHdr = 36, 20
	plen1 := int(uint32(b[walHdr])<<24 | uint32(b[walHdr+1])<<16 | uint32(b[walHdr+2])<<8 | uint32(b[walHdr+3]))
	frame2 := walHdr + frameHdr + plen1
	b[frame2+frameHdr] ^= 0xFF
	if err := os.WriteFile(wal, b, 0o644); err != nil {
		t.Fatal(err)
	}
	w2 := openWAL(t, dir, manualCkpt)
	defer w2.Close()
	if _, ok := get(w2, "a"); !ok {
		t.Fatalf("frames before the corruption were lost")
	}
	if _, ok := get(w2, "c"); ok {
		t.Fatalf("frame after a corrupt one survived replay")
	}
}

func TestWALCheckpointFoldsLogAndBumpsGeneration(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir, manualCkpt)
	for i := 0; i < 20; i++ {
		if err := w.Put("s\x00"+string(rune('a'+i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	before := dump(w)
	grewTo := w.WALSize()
	if grewTo <= 0 {
		t.Fatalf("WAL did not grow: %d", grewTo)
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if w.Generation() != 1 {
		t.Fatalf("generation after first checkpoint = %d", w.Generation())
	}
	if got := w.WALSize(); got >= grewTo {
		t.Fatalf("WAL did not shrink across checkpoint: %d -> %d", grewTo, got)
	}
	if got := dump(w); !reflect.DeepEqual(got, before) {
		t.Fatalf("checkpoint changed visible state")
	}
	// More commits, second checkpoint, reopen: all state from main file.
	if err := w.Put("s\x00zz", []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := openWAL(t, dir, manualCkpt)
	defer w2.Close()
	if w2.Generation() != 2 {
		t.Fatalf("generation after reopen = %d", w2.Generation())
	}
	if v, ok := get(w2, "zz"); !ok || v != "tail" {
		t.Fatalf("post-checkpoint commit lost: %q %v", v, ok)
	}
}

func TestWALStaleLogDiscarded(t *testing.T) {
	// Simulates the crash window between "rename new main file" and
	// "reset log": a log whose generation predates the main file must be
	// discarded wholesale, because every frame in it was checkpointed.
	dir := t.TempDir()
	w := openWAL(t, dir, manualCkpt)
	if err := w.Put("s\x00committed", []byte("yes")); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(); err != nil { // gen 1, log reset
		t.Fatal(err)
	}
	if err := w.Put("s\x00in-log", []byte("yes")); err != nil {
		t.Fatal(err)
	}
	// Save the gen-1 log, checkpoint to gen 2, then put the stale gen-1
	// log back — exactly what disk looks like if the reset never ran.
	wal := walPath(dir) + "-wal"
	stale, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(); err != nil { // gen 2: "in-log" now in main
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	w2 := openWAL(t, dir, manualCkpt)
	defer w2.Close()
	if _, ok := get(w2, "committed"); !ok {
		t.Fatalf("checkpointed state lost")
	}
	if v, ok := get(w2, "in-log"); !ok || v != "yes" {
		t.Fatalf("frame from stale log not recovered from main file: %q %v", v, ok)
	}
	// The stale log must have been reset, not appended to.
	if w2.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", w2.Generation())
	}
	if err := w2.Put("s\x00after", []byte("ok")); err != nil {
		t.Fatal(err)
	}
}

func TestWALGarbledHeaderReset(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir, manualCkpt)
	if err := w.Put("s\x00a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-reset can leave a partial header; recovery rewrites it.
	wal := walPath(dir) + "-wal"
	if err := os.WriteFile(wal, []byte("WLSKVW"), 0o644); err != nil {
		t.Fatal(err)
	}
	w2 := openWAL(t, dir, manualCkpt)
	defer w2.Close()
	if _, ok := get(w2, "a"); !ok {
		t.Fatalf("main-file state lost under garbled log header")
	}
	if err := w2.Put("s\x00b", []byte("2")); err != nil {
		t.Fatalf("store unusable after log header reset: %v", err)
	}
}

func TestWALCorruptMainFileRejected(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir, manualCkpt)
	for i := 0; i < 100; i++ {
		if err := w.Put("s\x00"+strings.Repeat("k", i%7+1)+string(rune('a'+i%26)), []byte(strings.Repeat("v", 50))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	main := walPath(dir)
	b, err := os.ReadFile(main)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) <= 4096 {
		t.Fatalf("main file has no data pages: %d bytes", len(b))
	}
	// Flip a byte inside a data page: the page checksum must catch it.
	b[4096+100] ^= 0xFF
	if err := os.WriteFile(main, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = kv.OpenWAL(main, manualCkpt)
	if err == nil {
		t.Fatalf("corrupt main file opened without error")
	}
	if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("error does not identify corruption: %v", err)
	}
}

// TestWALRefusesForeignMainFile: a file at the main path that is not a WAL
// main file — an append-only .store left by an earlier build, short or
// long — is refused as corrupt, never opened as an empty store.
func TestWALRefusesForeignMainFile(t *testing.T) {
	for _, size := range []int{7, 10000} {
		dir := t.TempDir()
		if err := os.WriteFile(walPath(dir), []byte(strings.Repeat("\x05batch", size)[:size]), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := kv.OpenWAL(walPath(dir), manualCkpt); !errors.Is(err, kv.ErrCorrupt) {
			t.Fatalf("%d-byte foreign file: OpenWAL error = %v, want ErrCorrupt", size, err)
		}
	}
}

func TestWALAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir, kv.Options{CheckpointBytes: 2048})
	val := make([]byte, 256)
	for i := 0; i < 64; i++ {
		if err := w.Put("s\x00"+string(rune('a'+i%26))+string(rune('0'+i/26)), val); err != nil {
			t.Fatal(err)
		}
	}
	if w.Generation() == 0 {
		t.Fatalf("auto-checkpoint never fired (wal size %d)", w.WALSize())
	}
	if w.WALSize() > 2048+4096 {
		t.Fatalf("WAL grew far past the checkpoint threshold: %d", w.WALSize())
	}
	before := dump(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := openWAL(t, dir, kv.Options{CheckpointBytes: 2048})
	defer w2.Close()
	if got := dump(w2); !reflect.DeepEqual(got, before) {
		t.Fatalf("state diverged across auto-checkpoint + reopen")
	}
}

func TestWALPageSpanningRecords(t *testing.T) {
	// Values larger than the 4 KiB page force the record stream to span
	// pages: "big" covers two page boundaries, "small" follows it.
	dir := t.TempDir()
	w := openWAL(t, dir, manualCkpt)
	big := make([]byte, 10000)
	for i := range big {
		big[i] = byte(i * 7)
	}
	if err := w.Put("s\x00big", big); err != nil {
		t.Fatal(err)
	}
	if err := w.Put("s\x00small", []byte("s")); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(walPath(dir)); err != nil || fi.Size() < 4*4096 {
		t.Fatalf("main file is not a header page plus three data pages: %v %v", fi, err)
	}
	w2 := openWAL(t, dir, manualCkpt)
	defer w2.Close()
	v, ok := get(w2, "big")
	if !ok || v != string(big) {
		t.Fatalf("page-spanning record damaged (ok=%v len=%d)", ok, len(v))
	}
	if _, ok := get(w2, "small"); !ok {
		t.Fatalf("record after the spanning one lost")
	}
}

func TestWALDeleteDurable(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir, manualCkpt)
	if err := w.Put("s\x00k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := w.Delete("s\x00k"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := openWAL(t, dir, manualCkpt)
	defer w2.Close()
	if _, ok := get(w2, "k"); ok {
		t.Fatalf("delete frame lost: checkpointed put resurrected")
	}
}

// syncsSince lists the file and directory syncs rec has recorded after
// its first n ops.
func syncsSince(rec *kvtest.CrashFS, n int) []string {
	var out []string
	for _, op := range rec.Ops()[n:] {
		if strings.HasPrefix(op, "sync") {
			out = append(out, op)
		}
	}
	return out
}

// TestWALSyncChoreography pins when a synced WAL flushes. A fresh log's
// header is written without a sync of its own: the first commit's sync
// makes it durable with the frame, and a crash before that leaves a file
// that held nothing. The first sync of every open is followed by the
// directory's, which makes the file's name durable even when an earlier
// open created it and never flushed. A reset that throws bytes away (a
// torn log at open, or the log a checkpoint folded in) syncs at once.
func TestWALSyncChoreography(t *testing.T) {
	dir := t.TempDir()
	rec := kvtest.NewCrashFS(nil, -1)
	opts := kv.Options{SyncEveryCommit: true, FS: rec, CheckpointBytes: -1}
	wal := walPath(dir) + "-wal"
	n := 0
	step := func(what string, do func() error, want ...string) {
		t.Helper()
		if err := do(); err != nil {
			t.Fatal(err)
		}
		if s := syncsSince(rec, n); !reflect.DeepEqual(s, want) {
			t.Fatalf("%s synced %v, want %v", what, s, want)
		}
		n = len(rec.Ops())
	}
	var w *kv.WAL
	reopen := func() (err error) {
		w, err = kv.OpenWAL(walPath(dir), opts)
		return err
	}
	put := func(k string) func() error { return func() error { return w.Put("s\x00"+k, []byte("1")) } }
	closeW := func() error { return w.Close() }

	step("opening a fresh log", reopen)
	step("closing a log that holds no frame", closeW)
	step("reopening it", reopen)
	step("its first commit", put("a"), "sync "+wal, "syncdir "+wal)
	step("the second commit", put("b"), "sync "+wal)
	step("a checkpoint", w.Checkpoint, "sync "+walPath(dir)+".ckpt", "syncdir "+walPath(dir), "sync "+wal)
	step("closing", closeW)

	// Tear the log's header, as a crash mid-reset would, and reopen.
	b, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, b[:20], 0o644); err != nil {
		t.Fatal(err)
	}
	step("reopening over a torn log", reopen, "sync "+wal, "syncdir "+wal)
	defer w.Close()
	step("the next commit", put("c"), "sync "+wal)
	if v, ok := get(w, "a"); !ok || v != "1" {
		t.Fatalf("checkpointed row = %q, %v after the reset", v, ok)
	}
}

// faultFS is the recorder with the next directory sync, or the next file
// sync, failing once armed.
type faultFS struct {
	*kvtest.CrashFS
	failDir, failSync bool
	failAt            int // the recorder's op count when the sync failed
}

var errInjected = errors.New("injected sync failure")

func (f *faultFS) SyncDir(name string) error {
	if f.failDir {
		f.failDir, f.failAt = false, len(f.Ops())
		return errInjected
	}
	return f.CrashFS.SyncDir(name)
}

func (f *faultFS) OpenFile(name string, flag int, perm os.FileMode) (kv.File, error) {
	file, err := f.CrashFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return faultFile{file, f}, nil
}

type faultFile struct {
	kv.File
	fs *faultFS
}

func (f faultFile) Sync() error {
	if f.fs.failSync {
		f.fs.failSync = false
		return errInjected
	}
	return f.File.Sync()
}

// TestCheckpointDirSyncFailureStopsTheWAL: a checkpoint whose directory
// sync fails has renamed its main file in, and a crash may still lose that
// rename. Recovery would then read the old main file beside the log, so
// the log must stay that file's: the checkpoint returns the error before
// it truncates or rewrites the log, and every later Apply refuses.
func TestCheckpointDirSyncFailureStopsTheWAL(t *testing.T) {
	dir := t.TempDir()
	fs := &faultFS{CrashFS: kvtest.NewCrashFS(nil, -1)}
	w, err := kv.OpenWAL(walPath(dir), kv.Options{SyncEveryCommit: true, FS: fs, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Put("s\x00a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	fs.failDir = true
	if err := w.Checkpoint(); !errors.Is(err, errInjected) {
		t.Fatalf("Checkpoint = %v, want the directory sync's error", err)
	}
	wal := walPath(dir) + "-wal"
	for _, op := range fs.Ops()[fs.failAt:] {
		if strings.HasPrefix(op, "truncate "+wal+" ") || strings.HasPrefix(op, "write "+wal+" ") {
			t.Fatalf("the log changed after the failed directory sync: %s", op)
		}
	}
	if err := w.Put("s\x00b", []byte("2")); !errors.Is(err, errInjected) {
		t.Fatalf("Put after the failed checkpoint = %v, want the directory sync's error", err)
	}
}

// TestLogSyncFailureStopsTheWAL: a frame whose sync failed is still in the
// log, so a later frame appended behind it would reuse its sequence number,
// and recovery would replay the refused frame and cut the acknowledged one
// as torn. After the failure every Apply refuses, and a reopened store
// holds every acknowledged commit.
func TestLogSyncFailureStopsTheWAL(t *testing.T) {
	dir := t.TempDir()
	fs := &faultFS{CrashFS: kvtest.NewCrashFS(nil, -1)}
	w, err := kv.OpenWAL(walPath(dir), kv.Options{SyncEveryCommit: true, FS: fs, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put("s\x00a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	fs.failSync = true
	if err := w.Put("s\x00b", []byte("2")); !errors.Is(err, errInjected) {
		t.Fatalf("Put with a failing sync = %v, want the sync's error", err)
	}
	if err := w.Put("s\x00c", []byte("3")); !errors.Is(err, errInjected) {
		t.Fatalf("Put after a failed sync = %v, want the sync's error", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w = openWAL(t, dir, manualCkpt)
	defer w.Close()
	if v, ok := get(w, "a"); !ok || v != "1" {
		t.Fatalf("acknowledged row a = %q, %v after a reopen", v, ok)
	}
	if v, ok := get(w, "c"); ok {
		t.Fatalf("refused row c = %q after a reopen", v)
	}
}
