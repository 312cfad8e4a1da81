package attrs

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"wls/internal/wire"
)

// listOf encodes pairs — key, value, key, value — as a list, in their order.
func listOf(kv ...string) []byte {
	ps := make([]Pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		ps = append(ps, Pair{kv[i], kv[i+1]})
	}
	e := wire.NewEncoder(64)
	AppendPairs(e, ps)
	return e.Bytes()
}

// decoded reads a list Check accepted with a plain wire.Decoder: its
// pairs in order, the model every reader is held to.
func decoded(list []byte) []Pair {
	d := wire.NewDecoder(list)
	var ps []Pair
	for n := d.Int(); n > 0; n-- {
		ps = append(ps, Pair{d.String(), d.String()})
	}
	return ps
}

func apply(m map[string]string, ps []Pair) {
	for _, p := range ps {
		m[p.K] = p.V
	}
}

const head = "0123456789abcdef" // a 16-byte header, as a session record's id

// checkList holds a list to the map model, read as bytes and as a string.
func checkList(t *testing.T, list []byte) {
	t.Helper()
	ps := decoded(list)
	model := map[string]string{}
	apply(model, ps)
	var walked []Pair
	for c := Walk(list); c.Next(); {
		walked = append(walked, Pair{string(c.K), string(c.V)})
	}
	if !slices.Equal(walked, ps) || Len(list) != len(ps) || Len(string(list)) != len(ps) {
		t.Fatalf("list %x walks %v (Len %d), decodes %v", list, walked, Len(list), ps)
	}
	if !maps.Equal(Map(list), model) || !maps.Equal(Map(string(list)), model) {
		t.Fatalf("list %x maps to %v, model %v", list, Map(list), model)
	}
	ascending := true
	for i := 1; i < len(ps); i++ {
		ascending = ascending && ps[i-1].K < ps[i].K
	}
	if _, err := Check(list, true); (err == nil) != ascending {
		t.Fatalf("list %x of pairs %v: sorted check %v", list, ps, err)
	}
}

// checkRecord holds a record Merge made to the model: its header, a
// sorted list filling the rest, the bytes AppendMap writes for the
// model, and a Lookup that finds every key and no other.
func checkRecord(t *testing.T, what, rec string, model map[string]string) {
	t.Helper()
	list := rec[len(head):]
	if rec[:len(head)] != head {
		t.Fatalf("%s: record %q lost its header", what, rec)
	}
	if size, err := Check(list, true); err != nil || size != len(list) {
		t.Fatalf("%s: record %q: size %d, %v", what, rec, size, err)
	}
	e := wire.NewEncoder(len(list))
	AppendMap(e, model)
	if string(e.Bytes()) != list {
		t.Fatalf("%s: record list %q, the model writes %q", what, list, e.Bytes())
	}
	probes := []string{"", "\xff"}
	for k := range model {
		probes = append(probes, k, k+"\x00")
	}
	for _, k := range probes {
		want, has := model[k]
		if got, ok := Lookup(list, k); ok != has || got != want {
			t.Fatalf("%s: Lookup(%q) = %q, %v; model %q, %v", what, k, got, ok, want, has)
		}
	}
}

// FuzzAttrList: any bytes fail the check or make a list whose walk, Len,
// Map, sorted check, Lookup and Merge agree with a map model — base as a
// new record's list, delta written over that record. The seeds are
// FuzzSessionRecord's lists: in and out of key order, a key written twice,
// empty values, lying counts, and a batch of two delta entries.
func FuzzAttrList(f *testing.F) {
	batch := wire.NewEncoder(64)
	for gen := uint64(1); gen <= 2; gen++ {
		batch.Raw(head)
		batch.Uint64(gen)
		batch.RawBytes(listOf("n", fmt.Sprint(gen), "item", "sku"))
	}
	lists := [][]byte{
		listOf(),
		listOf("item", "sku-0042", "n", "12"),
		listOf("n", "13", "item", "sku-7"),
		listOf("n", "1", "n", "2", "a", ""),
		listOf("", "", "k", "v"),
		{0x02},
		{0x01, 0x01, 'k'},
		{0x7f},
		batch.Bytes(),
	}
	for _, a := range lists {
		for _, b := range lists {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, base, delta []byte) {
		size, err := Check(base, false)
		if err != nil {
			return
		}
		base = base[:size]
		if got, err := Read(wire.NewDecoder(base), false); err != nil || len(got) != size {
			t.Fatalf("Read of list %x: %d bytes, %v", base, len(got), err)
		}
		checkList(t, base)
		model := map[string]string{}
		apply(model, decoded(base))
		rec := Merge("", len(head), []byte(head), base)
		checkRecord(t, "new record", rec, model)

		size, err = Check(delta, false)
		if err != nil {
			return
		}
		delta = delta[:size]
		checkList(t, delta)
		before := maps.Clone(model)
		apply(model, decoded(delta))
		next := Merge(rec, len(head), nil, delta)
		checkRecord(t, "merged record", next, model)
		if maps.Equal(before, model) && next != rec {
			t.Fatalf("a delta that changes nothing made record %q of %q", next, rec)
		}
	})
}

// TestLyingCountsFailBeforeSizing: a count no list of that length can
// carry fails the check, as do lengths past the end; bytes after a list
// are the caller's.
func TestLyingCountsFailBeforeSizing(t *testing.T) {
	for name, b := range map[string][]byte{
		"count 2^24":        {0x80, 0x80, 0x80, 0x10},
		"negative count":    {0x01},
		"count past pairs":  {0x04, 0x01, 'k', 0x01, 'v'},
		"key past the end":  {0x02, 0x05, 'k'},
		"value past end":    {0x02, 0x01, 'k', 0x03, 'v'},
		"overflowing count": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"no count":          {},
	} {
		if size, err := Check(b, false); err == nil {
			t.Errorf("%s: %x checked as a list of %d bytes", name, b, size)
		}
	}
	if size, err := Check([]byte{0x00, 0xff}, true); err != nil || size != 1 {
		t.Fatalf("an empty list before other bytes: size %d, %v", size, err)
	}
}
