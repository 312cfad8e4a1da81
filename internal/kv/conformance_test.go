package kv_test

// The conformance suite: one set of semantic tests that every backend —
// Mem, WAL — must pass identically. Backend-specific behaviour
// (durability across reopen, checkpointing) is gated on the capabilities
// a backend declares, not on its name.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
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

// dump captures the full visible state of a store, keyed by space and key.
func dump(s kv.Store) map[[2]string]string {
	out := map[[2]string]string{}
	img := s.Image()
	for _, sp := range img.Spaces() {
		img.Scan(sp, "", func(k, v string) bool {
			out[[2]string{sp, k}] = v
			return true
		})
	}
	return out
}

// get reads key from space "s", the space most tests write: Put's flat
// key for it is "s\x00"+key.
func get(s kv.Store, key string) (string, bool) { return s.Image().View("s", key) }

func TestConformancePutGetDelete(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bc backendCase) {
		s := bc.open(t, t.TempDir())
		defer s.Close()
		if _, ok := get(s, "missing"); ok {
			t.Fatalf("get(missing) reported present")
		}
		if err := s.Put("s\x00a", []byte("1")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if v, ok := get(s, "a"); !ok || v != "1" {
			t.Fatalf("get(a) = %q, %v", v, ok)
		}
		if err := s.Put("s\x00a", []byte("2")); err != nil {
			t.Fatalf("overwrite: %v", err)
		}
		if v, _ := get(s, "a"); v != "2" {
			t.Fatalf("overwrite lost: %q", v)
		}
		if err := s.Put("s\x00empty", nil); err != nil {
			t.Fatalf("Put empty value: %v", err)
		}
		if v, ok := get(s, "empty"); !ok || v != "" {
			t.Fatalf("empty value: %q, %v", v, ok)
		}
		if err := s.Delete("s\x00a"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if _, ok := get(s, "a"); ok {
			t.Fatalf("deleted key still present")
		}
		if err := s.Delete("s\x00never-existed"); err != nil {
			t.Fatalf("Delete of absent key: %v", err)
		}
		// A flat key splits at its first NUL; one with none names no space.
		if err := s.Put("s\x00b\x00c", []byte("3")); err != nil {
			t.Fatal(err)
		}
		if v, ok := get(s, "b\x00c"); !ok || v != "3" {
			t.Fatalf("get(b\\x00c) = %q, %v", v, ok)
		}
		if err := s.Put("nospace", []byte("x")); err == nil {
			t.Fatal("Put of a key with no space succeeded")
		}
		if err := s.Delete("nospace"); err == nil {
			t.Fatal("Delete of a key with no space succeeded")
		}
		// A space holding a NUL would come back as another space on disk.
		if err := s.Apply([]kv.Op{{Kind: kv.OpPut, Space: "a\x00b", Key: "k"}}); err == nil {
			t.Fatal("Apply to a space holding a NUL succeeded")
		}
		want := map[[2]string]string{{"s", "empty"}: "", {"s", "b\x00c"}: "3"}
		if got := dump(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("state = %q, want %q", got, want)
		}
	})
}

func TestConformancePutCopiesIn(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bc backendCase) {
		s := bc.open(t, t.TempDir())
		defer s.Close()
		buf := []byte("abc")
		if err := s.Put("s\x00k", buf); err != nil {
			t.Fatal(err)
		}
		v, _ := get(s, "k")
		buf[0] = 'X'
		if v2, _ := get(s, "k"); v2 != "abc" || v != "abc" {
			t.Fatalf("reusing the buffer given to Put leaked into the store: %q, %q", v, v2)
		}
	})
}

func TestConformanceScanOrderAndPrefix(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bc backendCase) {
		s := bc.open(t, t.TempDir())
		defer s.Close()
		for _, k := range []string{"b/2", "a/1", "b/1", "c/1", "a/2", "b/10"} {
			if err := s.Put("s\x00"+k, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		// Neighbouring spaces: a prefix of the name, an extension of it,
		// and the reserved empty name. None leaks into a scan of "s".
		for _, sp := range []string{"", "r", "s2", "sb"} {
			if err := s.Put(sp+"\x00b/3", []byte(sp)); err != nil {
				t.Fatal(err)
			}
		}
		img := s.Image()
		var keys []string
		img.Scan("s", "b/", func(k, _ string) bool {
			keys = append(keys, k)
			return true
		})
		want := []string{"b/1", "b/10", "b/2"}
		if !reflect.DeepEqual(keys, want) {
			t.Fatalf("Scan(s, b/) = %v, want %v", keys, want)
		}
		// Early stop.
		n := 0
		img.Scan("s", "", func(_, _ string) bool {
			n++
			return n < 3
		})
		if n != 3 {
			t.Fatalf("early-stopped scan visited %d keys", n)
		}
		if got := img.Count("s", "b/"); got != 3 {
			t.Fatalf("Count(s, b/) = %d", got)
		}
		if got := img.Count("s", ""); got != 6 {
			t.Fatalf("Count(s) = %d", got)
		}
		if got := img.Count("s", "zz"); got != 0 {
			t.Fatalf("Count(s, zz) = %d", got)
		}
		if got := img.Count("none", ""); got != 0 {
			t.Fatalf("Count(none) = %d", got)
		}
		if got, want := img.Spaces(), []string{"", "r", "s", "s2", "sb"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("Spaces() = %q, want %q", got, want)
		}
		if err := s.Delete("r\x00b/3"); err != nil {
			t.Fatal(err)
		}
		if got, want := img.Spaces(), []string{"", "s", "s2", "sb"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("Spaces() after emptying r = %q, want %q", got, want)
		}
	})
}

// TestConformanceScanMatchesAModel drives seeded puts and deletes over
// three spaces, enough of them to fill and compact each space's index
// many times over, and after every few batches checks every space's scans
// and counts, by several prefixes, against a sorted model.
func TestConformanceScanMatchesAModel(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bc backendCase) {
		s := bc.open(t, t.TempDir())
		defer s.Close()
		rng := rand.New(rand.NewSource(1))
		spaces := []string{"a", "ab", "b"}
		model := map[string]map[string]string{}
		for _, sp := range spaces {
			model[sp] = map[string]string{}
		}
		check := func(step int) {
			t.Helper()
			img := s.Image()
			for _, sp := range spaces {
				for _, prefix := range []string{"", "k1", "k12", "k5", "x"} {
					var want, got []string
					for k := range model[sp] {
						if strings.HasPrefix(k, prefix) {
							want = append(want, k)
						}
					}
					sort.Strings(want)
					img.Scan(sp, prefix, func(k, v string) bool {
						if v != model[sp][k] {
							t.Fatalf("step %d: %s/%s = %q, model %q", step, sp, k, v, model[sp][k])
						}
						got = append(got, k)
						return true
					})
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: Scan(%s, %q) = %d keys %v…, model %d keys %v…", step, sp, prefix, len(got), head(got), len(want), head(want))
					}
					if n := img.Count(sp, prefix); n != len(want) {
						t.Fatalf("step %d: Count(%s, %q) = %d, model %d", step, sp, prefix, n, len(want))
					}
				}
			}
		}
		for step := 0; step < 3000; step++ {
			ops := make([]kv.Op, 1+rng.Intn(4))
			for i := range ops {
				sp := spaces[rng.Intn(len(spaces))]
				k := fmt.Sprintf("k%d", rng.Intn(700))
				if rng.Intn(3) == 0 {
					ops[i] = kv.Op{Kind: kv.OpDelete, Space: sp, Key: k}
					delete(model[sp], k)
				} else {
					ops[i] = kv.Op{Kind: kv.OpPut, Space: sp, Key: k, Value: fmt.Sprint(step)}
					model[sp][k] = ops[i].Value
				}
			}
			if err := s.Apply(ops); err != nil {
				t.Fatal(err)
			}
			if step%50 == 0 {
				check(step)
			}
		}
		check(3000)
	})
}

func head(keys []string) []string { return keys[:min(len(keys), 5)] }

// TestConformanceScanWhileApplying: scans of one space run beside batches
// applied to others, and to the scanned space itself, and always see an
// ordered space whose untouched keys are all there (run it under -race).
func TestConformanceScanWhileApplying(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bc backendCase) {
		s := bc.open(t, t.TempDir())
		defer s.Close()
		const stable = 200
		for i := 0; i < stable; i++ {
			if err := s.Put(fmt.Sprintf("r\x00k%04d", i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("k%04d", i%500)
				ops := []kv.Op{
					{Kind: kv.OpPut, Space: "w", Key: k, Value: "v"},
					{Kind: kv.OpDelete, Space: "w", Key: fmt.Sprintf("k%04d", (i+250)%500)},
					{Kind: kv.OpPut, Space: "r", Key: "z" + k, Value: "v"},
					{Kind: kv.OpDelete, Space: "r", Key: fmt.Sprintf("zk%04d", (i+250)%500)},
				}
				if err := s.Apply(ops); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		defer func() { // before the store closes
			close(stop)
			wg.Wait()
		}()
		img := s.Image()
		for round := 0; round < 200; round++ {
			for _, sp := range []string{"r", "w"} {
				prev, n := "", 0
				img.Scan(sp, "", func(k, _ string) bool {
					if n > 0 && k <= prev {
						t.Errorf("Scan(%s) visited %q after %q", sp, k, prev)
					}
					prev = k
					n++
					return true
				})
			}
			if n := img.Count("r", "k"); n != stable {
				t.Fatalf("round %d: Count(r, k) = %d, want %d", round, n, stable)
			}
		}
	})
}

func TestConformanceApplyBatch(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bc backendCase) {
		s := bc.open(t, t.TempDir())
		defer s.Close()
		if err := s.Put("s\x00gone", []byte("x")); err != nil {
			t.Fatal(err)
		}
		err := s.Apply([]kv.Op{
			{Kind: kv.OpPut, Space: "s", Key: "a", Value: "1"},
			{Kind: kv.OpPut, Space: "t", Key: "b", Value: "2"},
			{Kind: kv.OpDelete, Space: "s", Key: "gone"},
			{Kind: kv.OpDelete, Space: "none", Key: "x"},
			{Kind: kv.OpPut, Space: "s", Key: "a", Value: "1b"}, // last-write-wins inside a batch
		})
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		want := map[[2]string]string{{"s", "a"}: "1b", {"t", "b"}: "2"}
		if got := dump(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("after batch: %v, want %v", got, want)
		}
	})
}

func TestConformanceClosedStoreRejectsWrites(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bc backendCase) {
		s := bc.open(t, t.TempDir())
		if err := s.Put("s\x00k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		if err := s.Put("s\x00k2", []byte("v")); err != kv.ErrClosed {
			t.Fatalf("Put after close = %v, want ErrClosed", err)
		}
		if err := s.Delete("s\x00k"); err != kv.ErrClosed {
			t.Fatalf("Delete after close = %v, want ErrClosed", err)
		}
		if err := s.Apply([]kv.Op{{Kind: kv.OpPut, Space: "s", Key: "x"}}); err != kv.ErrClosed {
			t.Fatalf("Apply after close = %v, want ErrClosed", err)
		}
		if v, ok := get(s, "k"); !ok || v != "v" {
			t.Fatalf("the final image after close: %q, %v", v, ok)
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
			if err := s.Put(fmt.Sprintf("s\x00k%03d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Delete("s\x00k010"); err != nil {
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
			if err := s.Put(fmt.Sprintf("s%d\x00k%03d", i%3, i%40), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			if err := s.Delete(fmt.Sprintf("s%d\x00k%03d", i%3, i)); err != nil {
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
		if err := s.Put("s\x00big", big); err != nil {
			t.Fatal(err)
		}
		v, ok := get(s, "big")
		if !ok || v != string(big) {
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
		v2, ok := get(s2, "big")
		if !ok || v2 != string(big) {
			t.Fatalf("large value lost on reopen (ok=%v len=%d)", ok, len(v2))
		}
	})
}
