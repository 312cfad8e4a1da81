package store

// Tests that hold the image's flat records to the field maps they
// replaced: the backend records are byte for byte what the map-per-row
// store wrote, and what the API hands out equals a plain-map model.

import (
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"wls/internal/kv"
	"wls/internal/vclock"
)

// goldenRecords are the backend records of writeGoldenRecords as the store
// wrote them while it kept a field map per row: a row whose fields sort
// differently from how they were listed, one with an empty field, rows
// without fields, a tombstone, and two staged votes between them holding
// nil, empty and non-empty field lists and conditions.
var goldenRecords = []struct{ space, key, hex string }{
	{"t:stock", "sku-1", "010106046465736303612062046c6173740003717479023137"},
	{"t:stock", "empty", "010100"},
	{"t:stock", "nil", "010100"},
	{"t:stock", "gone", "0201"},
	{"s:tx", "tx-a", "0401066f7264657273036f2d3101000106016e01320773657373696f6e0003736b7505736b752d3100010573746f636b05736b752d31000001000104076d697373696e670003717479023137"},
	{"s:tx", "tx-b", "04010573746f636b036e696c00000000020573746f636b05656d70747900010000"},
}

func writeGoldenRecords(t *testing.T) *Store {
	t.Helper()
	s := newStore()
	s.Put("stock", "sku-1", fields("qty", "17", "last", "", "desc", "a b"))
	s.Put("stock", "empty", map[string]string{})
	s.Put("stock", "nil", nil)
	s.Put("stock", "gone", fields("qty", "1"))
	s.Delete("stock", "gone")
	a := s.Session("tx-a")
	a.Insert("orders", "o-1", fields("sku", "sku-1", "session", "", "n", "2"))
	a.UpdateWhere("stock", "sku-1", fields("qty", "17", "missing", ""), map[string]string{})
	b := s.Session("tx-b")
	b.Update("stock", "nil", nil)
	b.DeleteVersioned("stock", "empty", 1)
	for _, se := range []*Session{a, b} {
		if err := se.Prepare(se.txID); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestRecordsAreByteIdentical: rows and votes reach the backend exactly as
// the map-per-row store wrote them, and a backend holding those bytes
// opens, reads and resolves as it did.
func TestRecordsAreByteIdentical(t *testing.T) {
	s := writeGoldenRecords(t)
	for _, g := range goldenRecords {
		got, ok := s.tp.Get(g.space, g.key)
		if !ok {
			t.Fatalf("no record %s/%s", g.space, g.key)
		}
		if h := hex.EncodeToString(got); h != g.hex {
			t.Errorf("record %s/%s = %s, want %s", g.space, g.key, h, g.hex)
		}
	}

	mem := kv.NewMem()
	ops := make([]kv.Op, 0, len(goldenRecords))
	for _, g := range goldenRecords {
		b, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, kv.Op{Kind: kv.OpPut, Space: g.space, Key: g.key, Value: string(b)})
	}
	if err := mem.Apply(ops); err != nil {
		t.Fatal(err)
	}
	r, err := Open("db", vclock.System, mem)
	if err != nil {
		t.Fatal(err)
	}
	if row, _ := r.Get("stock", "sku-1"); !maps.Equal(row.Fields, fields("qty", "17", "last", "", "desc", "a b")) || row.Version != 1 {
		t.Fatalf("sku-1 = %+v", row)
	}
	if got := r.InDoubt(); !slices.Equal(got, []string{"tx-a", "tx-b"}) {
		t.Fatalf("InDoubt = %v", got)
	}
	for _, id := range []string{"tx-a", "tx-b"} {
		if err := r.ResolveInDoubt(id, true); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]Row{
		"stock/sku-1": {Key: "sku-1", Fields: map[string]string{}, Version: 2},
		"stock/nil":   {Key: "nil", Fields: map[string]string{}, Version: 2},
		"orders/o-1":  {Key: "o-1", Fields: fields("sku", "sku-1", "session", "", "n", "2"), Version: 1},
	}
	for ref, w := range want {
		table, key, _ := strings.Cut(ref, "/")
		if row, ok := r.Get(table, key); !ok || !maps.Equal(row.Fields, w.Fields) || row.Version != w.Version {
			t.Errorf("%s = %+v, %v; want %+v", ref, row, ok, w)
		}
	}
	if _, ok := r.Get("stock", "empty"); ok {
		t.Error("the staged delete of stock/empty was not applied")
	}
	if row := r.Put("stock", "gone", nil); row.Version != 2 {
		t.Errorf("re-created stock/gone at v%d, want v2 after its tombstone", row.Version)
	}
}

// modelRows is the plain-map model: live key → fields.
type modelRows map[string]map[string]string

var propValues = []string{"", "x", "a longer value", "ü", "0"}

// randFields is nil, empty, or one to twelve fields drawn from sixteen
// names, so writes overwrite some fields and drop others.
func randFields(r *rand.Rand) map[string]string {
	switch r.Intn(6) {
	case 0:
		return nil
	case 1:
		return map[string]string{}
	}
	m := map[string]string{}
	for n := 1 + r.Intn(12); len(m) < n; {
		m["f"+strconv.Itoa(r.Intn(16))] = propValues[r.Intn(len(propValues))]
	}
	return m
}

// stored is what a write of f leaves in the model: a row always has a map.
func stored(f map[string]string) map[string]string {
	if f == nil {
		return map[string]string{}
	}
	return maps.Clone(f)
}

// checkAgainst compares a handed-out row with the model, then scribbles on
// its map: the next read must not see that.
func checkAgainst(what string, row Row, want map[string]string) error {
	if !maps.Equal(row.Fields, want) {
		return fmt.Errorf("%s %s = %v, model %v", what, row.Key, row.Fields, want)
	}
	row.Fields["f0"] = "scribbled"
	delete(row.Fields, "f1")
	return nil
}

func checkStore(s *Store, m modelRows, keys []string) error {
	for _, k := range keys {
		row, ok := s.Get("t", k)
		if ok != (m[k] != nil) {
			return fmt.Errorf("Get %s: present %v, model %v", k, ok, m[k] != nil)
		}
		if ok {
			if err := checkAgainst("Get", row, m[k]); err != nil {
				return err
			}
		}
	}
	rows := s.Scan("t", nil)
	if len(rows) != len(m) {
		return fmt.Errorf("Scan: %d rows, model %d", len(rows), len(m))
	}
	for _, row := range rows {
		if err := checkAgainst("Scan", row, m[row.Key]); err != nil {
			return err
		}
	}
	for _, k := range keys { // what the scribbles above must not have reached
		if row, ok := s.Get("t", k); ok && !maps.Equal(row.Fields, m[k]) {
			return fmt.Errorf("%s reads %v after a caller changed a map it was handed; model %v", k, row.Fields, m[k])
		}
	}
	return nil
}

// step performs one random write against s and the model.
func step(r *rand.Rand, s *Store, m modelRows, keys []string, txID string) error {
	k := keys[r.Intn(len(keys))]
	f := randFields(r)
	op := r.Intn(6)
	if op == 0 {
		row, err := s.PutE("t", k, f)
		if err != nil {
			return err
		}
		m[k] = stored(f)
		return checkAgainst("PutE", row, m[k])
	}
	se := s.Session(txID)
	commit := func(se *Session) error {
		var err error
		if r.Intn(2) == 0 { // two-phase: the write set goes through a durable vote
			err = se.Prepare(txID)
		}
		if err == nil {
			err = se.Commit(txID)
		}
		if err != nil {
			return errors.Join(err, se.Rollback(txID))
		}
		return nil
	}
	switch op {
	case 1:
		se.Update("t", k, f)
		m[k] = stored(f)
		return commit(se)
	case 2:
		delete(m, k)
		se.Delete("t", k)
		return commit(se)
	case 3:
		se.Insert("t", k, f)
		err := commit(se)
		if m[k] != nil {
			if !errors.Is(err, ErrDuplicate) {
				return fmt.Errorf("insert of live %s: %v, want ErrDuplicate", k, err)
			}
			return nil
		}
		m[k] = stored(f)
		return err
	default: // UpdateWhere: op 4 holds while the row lives, op 5 never does
		expect := map[string]string{}
		for name, v := range m[k] {
			if r.Intn(2) == 0 {
				expect[name] = v
			}
		}
		if m[k]["f15"] == "" {
			expect["f15"] = "" // an absent field reads as empty
		}
		if op == 5 {
			expect["f"+strconv.Itoa(r.Intn(16))] = "never stored"
		}
		se.UpdateWhere("t", k, expect, f)
		err := commit(se)
		if op == 5 || m[k] == nil {
			if !errors.Is(err, ErrConflict) {
				return fmt.Errorf("UpdateWhere %v on %s (%v): %v, want ErrConflict", expect, k, m[k], err)
			}
			return nil
		}
		m[k] = stored(f)
		return err
	}
}

// TestFlatRowsMatchAMapModel: random field sets — none, empty, up to
// twelve fields — written by autocommit and by one- and two-phase
// transactions, overwritten, deleted and re-inserted, and conditioned by
// UpdateWhere conditions that hold and that do not. After every commit,
// after a reopen, and after a vote left in doubt across that reopen is
// resolved, Get, Scan and PutE hand out exactly the plain-map model's
// fields, and changing a map they handed out never changes the store.
func TestFlatRowsMatchAMapModel(t *testing.T) {
	dir := t.TempDir()
	keys := []string{"k0", "k1", "k2", "k3"}
	run := 0
	prop := func(seed int64) bool {
		run++
		r := rand.New(rand.NewSource(seed))
		path := filepath.Join(dir, strconv.Itoa(run)+".db")
		open := func() *Store {
			w, err := kv.OpenWAL(path, kv.Options{})
			if err != nil {
				t.Fatal(err)
			}
			s, err := Open("db", vclock.System, w)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		fail := func(err error) bool { t.Logf("seed %d: %v", seed, err); return false }
		s, m := open(), modelRows{}
		for i := 0; i < 40; i++ {
			if err := step(r, s, m, keys, "tx-"+strconv.Itoa(i)); err != nil {
				return fail(err)
			}
			if err := checkStore(s, m, keys); err != nil {
				return fail(fmt.Errorf("after step %d: %w", i, err))
			}
		}
		k, f := keys[r.Intn(len(keys))], randFields(r)
		doubt := s.Session("in-doubt")
		doubt.Update("t", k, f)
		if err := doubt.Prepare("in-doubt"); err != nil {
			return fail(err)
		}
		if err := s.Close(); err != nil {
			return fail(err)
		}
		s = open()
		defer s.Close()
		if err := checkStore(s, m, keys); err != nil {
			return fail(fmt.Errorf("after reopen: %w", err))
		}
		if err := s.ResolveInDoubt("in-doubt", true); err != nil {
			return fail(err)
		}
		m[k] = stored(f)
		if err := checkStore(s, m, keys); err != nil {
			return fail(fmt.Errorf("after resolving the vote: %w", err))
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRefusesAMalformedRecord: a row record the store could not have
// written — cut short, of an unknown kind, with its fields out of order or
// bytes past its last field — fails Open and names its table and key. A
// malformed record that reaches the backend after Open reads short rather
// than panicking a request.
func TestOpenRefusesAMalformedRecord(t *testing.T) {
	for name, rec := range map[string]string{
		"cut short":     "\x01\x01\x02\x03qty",
		"unknown kind":  "\x07\x01",
		"out of order":  "\x01\x01\x04\x01b\x011\x01a\x011",
		"trailing":      "\x01\x01\x02\x03qty\x011\x00",
		"no version":    "\x02",
		"huge count":    "\x01\x01\xfe\xff\xff\xff\x0f",
		"field overrun": "\x01\x01\x02\x03qty\x091",
	} {
		t.Run(name, func(t *testing.T) {
			mem := kv.NewMem()
			if err := mem.Put("t:stock\x00a", []byte(rec)); err != nil {
				t.Fatal(err)
			}
			_, err := Open("db", vclock.System, mem)
			if err == nil || !strings.Contains(err.Error(), "store: table stock key a") {
				t.Fatalf("Open over a %s record: %v", name, err)
			}
			mem = kv.NewMem()
			s, err := Open("db", vclock.System, mem)
			if err != nil {
				t.Fatal(err)
			}
			if err := mem.Put("t:stock\x00a", []byte(rec)); err != nil {
				t.Fatal(err)
			}
			s.Get("stock", "a")
			s.Scan("stock", nil)
			s.Count("stock")
			se := s.Session("tx")
			se.UpdateWhere("stock", "a", fields("qty", "1"), fields("qty", "2"))
			se.Commit("tx") // a conflict or a commit: either, but no panic
		})
	}
	mem := kv.NewMem()
	for k, rec := range map[string]string{"a": "\x02\x05", "b": "\x01\x01\x00", "c": "\x01\x02\x04\x01a\x011\x01b\x00"} {
		if err := mem.Put("t:stock\x00"+k, []byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open("db", vclock.System, mem)
	if err != nil {
		t.Fatalf("Open over a tombstone, an empty row and a two-field row: %v", err)
	}
	if r, ok := s.Get("stock", "c"); !ok || r.Version != 2 || r.Fields["a"] != "1" || r.Fields["b"] != "" || len(r.Fields) != 2 {
		t.Fatalf("stock/c = %+v, %v", r, ok)
	}
}
