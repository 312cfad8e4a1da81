package kv_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wls/internal/kv"
)

// goldenOps are the batches that wrote testdata/golden.db and its log, with
// a checkpoint after the first seven: the main file holds those, the log
// the last three. The files were written by the kv of flat keys, which
// took each key below as space+"\x00"+key: the space "" with key
// "tx\x00<id>" is tuple's stage record, flat "\x00tx\x00<id>".
var goldenOps = [][]kv.Op{
	{put("queue", "m1", "hello"), put("queue", "m2", "")},
	{put("conv", "c1", "state-1")},
	{put("t:orders", "o-1", "\x01\x01\x02\x03sku\x05sku-1")},
	{put("", "tx\x00s1-tx-7", "\x01\x01\x05queue\x02m9\x03msg")},
	{put("s:meta", "lsn", "\x05")},
	{put("a", "b\x00c", "a NUL inside the key"), put("ab", "k", "space ab"), put("a", "", "empty key")},
	{del("queue", "m2")},
	// checkpoint
	{put("queue", "m3", "world"), del("conv", "c1")},
	{put("t:orders", "o-2", "\x01\x01\x02\x03sku\x05sku-2"), del("", "tx\x00s1-tx-7"), put("s:meta", "lsn", "\x06")},
	{put("conv", "c1", "state-2"), del("never", "was"), put("", "tx\x00s1-tx-8", "staged")},
}

// goldenState is what the golden store holds.
var goldenState = map[[2]string]string{
	{"", "tx\x00s1-tx-8"}: "staged",
	{"a", ""}:             "empty key",
	{"a", "b\x00c"}:       "a NUL inside the key",
	{"ab", "k"}:           "space ab",
	{"conv", "c1"}:        "state-2",
	{"queue", "m1"}:       "hello",
	{"queue", "m3"}:       "world",
	{"s:meta", "lsn"}:     "\x06",
	{"t:orders", "o-1"}:   "\x01\x01\x02\x03sku\x05sku-1",
	{"t:orders", "o-2"}:   "\x01\x01\x02\x03sku\x05sku-2",
}

func put(space, key, value string) kv.Op {
	return kv.Op{Kind: kv.OpPut, Space: space, Key: key, Value: value}
}

func del(space, key string) kv.Op { return kv.Op{Kind: kv.OpDelete, Space: space, Key: key} }

func copyGolden(t *testing.T, dir string, names ...string) {
	t.Helper()
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func sameFile(t *testing.T, got, want string) {
	t.Helper()
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s differs from %s (%d vs %d bytes)", got, want, len(g), len(w))
	}
}

// TestGoldenWALReopens: a data directory written by the flat-keyed kv
// reopens to the same (space, key, value) set — each flat key split at its
// first NUL — and checkpointing it writes the very main file the flat kv
// wrote for the same image: the record stream, its order and its pages.
func TestGoldenWALReopens(t *testing.T) {
	dir := t.TempDir()
	copyGolden(t, dir, "golden.db", "golden.db-wal")
	w, err := kv.OpenWAL(filepath.Join(dir, "golden.db"), kv.Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := dump(w); !reflect.DeepEqual(got, goldenState) {
		t.Fatalf("reopened golden store:\n got %q\nwant %q", got, goldenState)
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sameFile(t, filepath.Join(dir, "golden.db"), filepath.Join("testdata", "golden-checkpointed.db"))
	if got := dump(w); !reflect.DeepEqual(got, goldenState) {
		t.Fatalf("after the checkpoint:\n got %q\nwant %q", got, goldenState)
	}
}

// TestGoldenWALBytes: the same batches, written now, give the golden main
// file and log byte for byte — every frame still spells its keys flat.
func TestGoldenWALBytes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "golden.db")
	w, err := kv.OpenWAL(path, kv.Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i, ops := range goldenOps {
		if i == 7 {
			if err := w.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sameFile(t, path, filepath.Join("testdata", "golden.db"))
	sameFile(t, path+"-wal", filepath.Join("testdata", "golden.db-wal"))
}
