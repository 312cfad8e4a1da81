package kv_test

// The conformance suite: one set of semantic tests that every backend —
// Mem, WAL — must pass identically. Backend-specific behaviour
// (durability across reopen, checkpointing) is gated on the capabilities
// a backend declares, not on its name.

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"wls/internal/kv"
)

// backendCase describes one backend to the conformance suite.
type backendCase struct {
	name    string
	durable bool
	// open opens (or reopens) the store rooted at dir.
	open func(t *testing.T, dir string) kv.Store
}

func walPath(dir string) string { return filepath.Join(dir, "store.db") }

func allBackends() []backendCase {
	return []backendCase{
		{
			name:    "mem",
			durable: false,
			open: func(t *testing.T, dir string) kv.Store {
				return kv.NewMem()
			},
		},
		{
			name:    "wal",
			durable: true,
			open: func(t *testing.T, dir string) kv.Store {
				s, err := kv.OpenWAL(walPath(dir), kv.Options{})
				if err != nil {
					t.Fatalf("OpenWAL: %v", err)
				}
				return s
			},
		},
	}
}

// forEachBackend runs fn once per backend as a subtest.
func forEachBackend(t *testing.T, fn func(t *testing.T, bc backendCase)) {
	for _, bc := range allBackends() {
		bc := bc
		t.Run(bc.name, func(t *testing.T) { fn(t, bc) })
	}
}

// dump captures the full visible state of a store.
func dump(s kv.Store) map[string]string {
	out := map[string]string{}
	s.Scan("", func(k, v string) bool {
		out[k] = v
		return true
	})
	return out
}

func TestConformancePutGetDelete(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bc backendCase) {
		s := bc.open(t, t.TempDir())
		defer s.Close()
		if _, ok := s.Get("missing"); ok {
			t.Fatalf("Get(missing) reported present")
		}
		if err := s.Put("a", []byte("1")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if v, ok := s.Get("a"); !ok || string(v) != "1" {
			t.Fatalf("Get(a) = %q, %v", v, ok)
		}
		if err := s.Put("a", []byte("2")); err != nil {
			t.Fatalf("overwrite: %v", err)
		}
		if v, _ := s.Get("a"); string(v) != "2" {
			t.Fatalf("overwrite lost: %q", v)
		}
		if err := s.Put("empty", nil); err != nil {
			t.Fatalf("Put empty value: %v", err)
		}
		if v, ok := s.Get("empty"); !ok || len(v) != 0 {
			t.Fatalf("empty value: %q, %v", v, ok)
		}
		if err := s.Delete("a"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if _, ok := s.Get("a"); ok {
			t.Fatalf("deleted key still present")
		}
		if err := s.Delete("never-existed"); err != nil {
			t.Fatalf("Delete of absent key: %v", err)
		}
	})
}

func TestConformanceGetCopiesOut(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bc backendCase) {
		s := bc.open(t, t.TempDir())
		defer s.Close()
		if err := s.Put("k", []byte("abc")); err != nil {
			t.Fatal(err)
		}
		v, _ := s.Get("k")
		v[0] = 'X'
		if v2, _ := s.Get("k"); string(v2) != "abc" {
			t.Fatalf("mutating a Get result leaked into the store: %q", v2)
		}
	})
}

func TestConformanceScanOrderAndPrefix(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bc backendCase) {
		s := bc.open(t, t.TempDir())
		defer s.Close()
		for _, k := range []string{"b/2", "a/1", "b/1", "c/1", "a/2", "b/10"} {
			if err := s.Put(k, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		var keys []string
		s.Scan("b/", func(k, _ string) bool {
			keys = append(keys, k)
			return true
		})
		want := []string{"b/1", "b/10", "b/2"}
		if !reflect.DeepEqual(keys, want) {
			t.Fatalf("Scan(b/) = %v, want %v", keys, want)
		}
		// Early stop.
		n := 0
		s.Scan("", func(_, _ string) bool {
			n++
			return n < 3
		})
		if n != 3 {
			t.Fatalf("early-stopped scan visited %d keys", n)
		}
		if got := s.Count("b/"); got != 3 {
			t.Fatalf("Count(b/) = %d", got)
		}
		if got := s.Count(""); got != 6 {
			t.Fatalf("Count() = %d", got)
		}
		if got := s.Count("zz"); got != 0 {
			t.Fatalf("Count(zz) = %d", got)
		}
	})
}

func TestConformanceApplyBatch(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bc backendCase) {
		s := bc.open(t, t.TempDir())
		defer s.Close()
		if err := s.Put("gone", []byte("x")); err != nil {
			t.Fatal(err)
		}
		err := s.Apply([]kv.Op{
			{Kind: kv.OpPut, Key: "a", Value: "1"},
			{Kind: kv.OpPut, Key: "b", Value: "2"},
			{Kind: kv.OpDelete, Key: "gone"},
			{Kind: kv.OpPut, Key: "a", Value: "1b"}, // last-write-wins inside a batch
		})
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		want := map[string]string{"a": "1b", "b": "2"}
		if got := dump(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("after batch: %v, want %v", got, want)
		}
	})
}

func TestConformanceClosedStoreRejectsWrites(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bc backendCase) {
		s := bc.open(t, t.TempDir())
		if err := s.Put("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		if err := s.Put("k2", []byte("v")); err != kv.ErrClosed {
			t.Fatalf("Put after close = %v, want ErrClosed", err)
		}
		if err := s.Delete("k"); err != kv.ErrClosed {
			t.Fatalf("Delete after close = %v, want ErrClosed", err)
		}
		if err := s.Apply([]kv.Op{{Kind: kv.OpPut, Key: "x"}}); err != kv.ErrClosed {
			t.Fatalf("Apply after close = %v, want ErrClosed", err)
		}
	})
}

func TestConformanceDurability(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bc backendCase) {
		if !bc.durable {
			t.Skip("in-memory backend")
		}
		dir := t.TempDir()
		s := bc.open(t, dir)
		for i := 0; i < 50; i++ {
			if err := s.Put(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Delete("k010"); err != nil {
			t.Fatal(err)
		}
		before := dump(s)
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		s2 := bc.open(t, dir)
		defer s2.Close()
		if got := dump(s2); !reflect.DeepEqual(got, before) {
			t.Fatalf("reopen lost state:\n got %v\nwant %v", got, before)
		}
	})
}

func TestConformanceMaintenancePreservesState(t *testing.T) {
	// Checkpointing is behaviour-preserving: same visible state before,
	// after, and across a reopen.
	forEachBackend(t, func(t *testing.T, bc backendCase) {
		dir := t.TempDir()
		s := bc.open(t, dir)
		for i := 0; i < 200; i++ {
			if err := s.Put(fmt.Sprintf("k%03d", i%40), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			if err := s.Delete(fmt.Sprintf("k%03d", i)); err != nil {
				t.Fatal(err)
			}
		}
		before := dump(s)
		ran := false
		if c, ok := s.(kv.Checkpointer); ok {
			if err := c.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			ran = true
		}
		if got := dump(s); !reflect.DeepEqual(got, before) {
			t.Fatalf("maintenance changed state:\n got %v\nwant %v", got, before)
		}
		if !bc.durable {
			return
		}
		if !ran {
			t.Fatalf("durable backend does not expose Checkpoint")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2 := bc.open(t, dir)
		defer s2.Close()
		if got := dump(s2); !reflect.DeepEqual(got, before) {
			t.Fatalf("reopen after maintenance lost state:\n got %v\nwant %v", got, before)
		}
	})
}

func TestConformanceLargeValues(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bc backendCase) {
		dir := t.TempDir()
		s := bc.open(t, dir)
		big := make([]byte, 64<<10)
		for i := range big {
			big[i] = byte(i * 7)
		}
		if err := s.Put("big", big); err != nil {
			t.Fatal(err)
		}
		v, ok := s.Get("big")
		if !ok || !reflect.DeepEqual(v, big) {
			t.Fatalf("large value round-trip failed (ok=%v len=%d)", ok, len(v))
		}
		if !bc.durable {
			s.Close()
			return
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2 := bc.open(t, dir)
		defer s2.Close()
		v2, ok := s2.Get("big")
		if !ok || !reflect.DeepEqual(v2, big) {
			t.Fatalf("large value lost on reopen (ok=%v len=%d)", ok, len(v2))
		}
	})
}
