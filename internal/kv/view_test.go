package kv_test

import (
	"testing"
	"unsafe"

	"wls/internal/kv"
)

// TestViewHandsOutTheImagesValue: a value Apply is given is the very
// string the image keeps and View hands out, not a copy of it; the key is
// the op's too; and a string View handed out still reads the same after
// the key is overwritten, deleted and — on a durable backend — the store
// is checkpointed and reopened.
func TestViewHandsOutTheImagesValue(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bc backendCase) {
		dir := t.TempDir()
		s := bc.open(t, dir)
		rec := string([]byte("a record, handed over as a string"))
		key := string([]byte("k1"))
		err := s.Apply([]kv.Op{
			{Kind: kv.OpPut, Space: "t:a", Key: key, Value: rec},
			{Kind: kv.OpPut, Space: "t:a", Key: "empty", Value: ""},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put("t:a\x00k2", []byte("copied on entry")); err != nil {
			t.Fatal(err)
		}
		img := s.Image()
		v, ok := img.View("t:a", "k1")
		if !ok || v != rec {
			t.Fatalf("View(k1) = %q, %v", v, ok)
		}
		if unsafe.StringData(v) != unsafe.StringData(rec) {
			t.Fatal("the image copied a value Apply was given")
		}
		img.Scan("t:a", "k1", func(k, _ string) bool {
			if unsafe.StringData(k) != unsafe.StringData(key) {
				t.Fatal("the image copied a key Apply was given")
			}
			return true
		})
		if v2, ok := img.View("t:a", "k2"); !ok || v2 != "copied on entry" {
			t.Fatalf("View(k2) = %q, %v", v2, ok)
		}
		if e, ok := img.View("t:a", "empty"); !ok || e != "" {
			t.Fatalf("View(empty) = %q, %v", e, ok)
		}
		if _, ok := img.View("t:a", "missing"); ok {
			t.Fatal("View(missing) reported present")
		}
		if _, ok := img.View("t:b", "k1"); ok {
			t.Fatal("View of another space reported present")
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
		if now, _ := img.View("t:a", "k1"); now != "overwritten" {
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
		if now, ok := s.Image().View("t:a", "k1"); !ok || now != "overwritten" {
			t.Fatalf("View(k1) after reopen = %q, %v", now, ok)
		}
		if _, ok := s.Image().View("t:a", "k2"); ok {
			t.Fatal("a deleted key came back on reopen")
		}
	})
}
