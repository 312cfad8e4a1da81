package kv_test

import (
	"testing"
	"unsafe"

	"wls/internal/kv"
)

// TestViewHandsOutTheImagesValue: View reads what Get reads, from a
// caller's buffer that it does not keep; a value Apply is given is the
// very string the image keeps, not a copy of it; and a string View handed out
// still reads the same after the key is overwritten, deleted and — on a
// durable backend — the store is checkpointed and reopened.
func TestViewHandsOutTheImagesValue(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bc backendCase) {
		dir := t.TempDir()
		s := bc.open(t, dir)
		rec := string([]byte("a record, handed over as a string"))
		err := s.Apply([]kv.Op{
			{Kind: kv.OpPut, Key: "t:a\x00k1", Value: rec},
			{Kind: kv.OpPut, Key: "t:a\x00empty", Value: ""},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put("t:a\x00k2", []byte("copied on entry")); err != nil {
			t.Fatal(err)
		}
		key := []byte("t:a\x00k1")
		v, ok := s.View(key)
		if !ok || v != rec {
			t.Fatalf("View(k1) = %q, %v", v, ok)
		}
		if unsafe.StringData(v) != unsafe.StringData(rec) {
			t.Fatal("the image copied a value Apply was given")
		}
		copy(key, "t:a\x00k2") // View kept nothing of the buffer it was given
		if v2, ok := s.View(key); !ok || v2 != "copied on entry" {
			t.Fatalf("View(k2) = %q, %v", v2, ok)
		}
		if g, ok := s.Get("t:a\x00k1"); !ok || string(g) != rec {
			t.Fatalf("Get(k1) = %q, %v; View read %q", g, ok, v)
		}
		if e, ok := s.View([]byte("t:a\x00empty")); !ok || e != "" {
			t.Fatalf("View(empty) = %q, %v", e, ok)
		}
		if _, ok := s.View([]byte("t:a\x00missing")); ok {
			t.Fatal("View(missing) reported present")
		}

		if err := s.Put("t:a\x00k1", []byte("overwritten")); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete("t:a\x00k2"); err != nil {
			t.Fatal(err)
		}
		if c, ok := s.(kv.Checkpointer); ok {
			if err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if v != rec {
			t.Fatalf("a value View handed out changed under its reader: %q", v)
		}
		if now, _ := s.View([]byte("t:a\x00k1")); now != "overwritten" {
			t.Fatalf("View(k1) after the overwrite = %q", now)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if !bc.durable {
			return
		}
		s = bc.open(t, dir)
		defer s.Close()
		if now, ok := s.View([]byte("t:a\x00k1")); !ok || now != "overwritten" {
			t.Fatalf("View(k1) after reopen = %q, %v", now, ok)
		}
		if _, ok := s.View([]byte("t:a\x00k2")); ok {
			t.Fatal("a deleted key came back on reopen")
		}
	})
}
