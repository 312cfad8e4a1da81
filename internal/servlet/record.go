package servlet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"

	"wls/internal/cluster"
	"wls/internal/wire"
)

// A session's record is one immutable string: its 16-byte id, then its
// attributes as an attribute list — a count, then that many key/value
// pairs, each a length-prefixed string — in key order, each key once. The
// list is the format attributes travel in everywhere: the tail of a delta
// entry, the Fig 3 fetch reply and the client cookie's state. A record is
// only ever built by merge, so every one is well-formed, and it is read in
// place.

// noAttrs is the attribute list of no attributes: a count of zero.
const noAttrs = "\x00"

// errList is every way a list can be malformed. It is a sentinel, never
// the decoder's own error, so a list in a caller's stack buffer does not
// escape with the error.
var errList = errors.New("servlet: malformed attribute list")

// readList consumes an attribute list from d and returns its bytes,
// aliasing d's buffer, and its count: the count is no more than what d
// holds can carry (a pair is two length bytes or more) and every length is
// in bounds; the keys may come in any order. Lists come from outside, and
// anything that becomes a record passes through here first.
func readList(d *wire.Decoder) (list []byte, n int, err error) {
	probe := *d
	n = probe.Int()
	if probe.Err() != nil || n < 0 || n > probe.Remaining()/2 {
		return nil, 0, errList
	}
	for i := 0; i < n; i++ {
		probe.BytesNoCopy()
		probe.BytesNoCopy()
	}
	if probe.Err() != nil {
		return nil, 0, errList
	}
	return d.Raw(uint64(d.Remaining() - probe.Remaining())), n, nil
}

// appendPairs writes pairs — key, value, key, value — as an attribute list,
// in their order.
func appendPairs(e *wire.Encoder, pairs []string) {
	e.Int(len(pairs) / 2)
	for _, s := range pairs {
		e.String(s)
	}
}

// appendMap writes m as an attribute list in key order: Cookie.State and
// store rows are maps, and convert at this edge.
func appendMap(e *wire.Encoder, m map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.Int(len(keys))
	for _, k := range keys {
		e.String(k)
		e.String(m[k])
	}
}

// listMap reads an attribute list readList accepted into a map, the value
// a key is given last winning; nil for no attributes.
func listMap(list []byte) map[string]string {
	d := wire.NewDecoder(list)
	n := d.Int()
	if n <= 0 {
		return nil
	}
	m := make(map[string]string, n)
	for ; n > 0; n-- {
		k := d.String()
		m[k] = d.String()
	}
	return m
}

// lookup returns key's value in record rec, and whether rec holds key.
// The value is a substring of rec.
func lookup(rec, key string) (string, bool) {
	d := wire.NewStringDecoder(rec[cluster.IDLen:])
	for n := d.Int(); n > 0; n-- {
		switch k, v := d.String(), d.String(); {
		case k == key:
			return v, true
		case k > key:
			return "", false
		}
	}
	return "", false
}

// recordLen returns how many attributes record rec holds.
func recordLen(rec string) int {
	d := wire.NewStringDecoder(rec[cluster.IDLen:])
	return d.Int()
}

// pair is one attribute of a list being merged: where its key and its
// value lie in the list. Offsets, not slices, so the list does not escape.
type pair struct{ k0, k1, v0, v1 int }

// merge returns the record that writing list over record rec makes: rec's
// id, then its attributes with each key of list set to the value list
// gives it last, in key order. list is one readList accepted: a delta (the
// keys in first-write order), a fetch reply or cookie state. The result is
// one new string, or rec itself when list changes nothing. With rec ""
// the record is new: id (16 bytes) begins it and list is all it holds.
func merge(rec string, id, list []byte) string {
	old := noAttrs
	if rec != "" {
		old, id = rec[cluster.IDLen:], nil
	}
	d := wire.NewDecoder(list)
	n := d.Int()
	var small [8]pair
	ups := small[:0]
	if n > len(small) {
		ups = make([]pair, 0, n)
	}
	at := func(b []byte) int { return len(list) - d.Remaining() - len(b) }
	for ; n > 0; n-- {
		k := d.BytesNoCopy()
		k0 := at(k)
		v := d.BytesNoCopy()
		v0 := at(v)
		ups = append(ups, pair{k0, k0 + len(k), v0, v0 + len(v)})
	}
	// In key order, and of a key written twice only its last value: the
	// sort is stable, so that is the last of each run.
	key := func(p pair) []byte { return list[p.k0:p.k1] }
	slices.SortStableFunc(ups, func(a, b pair) int { return bytes.Compare(key(a), key(b)) })
	w := 0
	for i := range ups {
		if i+1 < len(ups) && bytes.Equal(key(ups[i]), key(ups[i+1])) {
			continue
		}
		ups[w] = ups[i]
		w++
	}
	ups = ups[:w]

	// Walk old and ups in key order: a pair of old is copied as old holds
	// it, one of ups encoded afresh.
	e := wire.AcquireEncoder()
	defer e.Release()
	od := wire.NewStringDecoder(old)
	left, rest := od.Int(), od.Rest()
	count, changed := 0, rec == ""
	for ; len(ups) > 0 || left > 0; count++ {
		var k, v, enc string
		if left > 0 {
			p := wire.NewStringDecoder(rest)
			k, v = p.String(), p.String()
			enc = rest[:len(rest)-p.Remaining()]
		}
		if len(ups) == 0 || left > 0 && k < string(key(ups[0])) {
			e.Raw(enc)
			rest, left = rest[len(enc):], left-1
			continue
		}
		uk, uv := key(ups[0]), list[ups[0].v0:ups[0].v1]
		if left > 0 && k == string(uk) {
			changed = changed || v != string(uv)
			rest, left = rest[len(enc):], left-1
		} else {
			changed = true
		}
		e.Bytes2(uk)
		e.Bytes2(uv)
		ups = ups[1:]
	}
	if !changed {
		return rec
	}
	var head [cluster.IDLen + binary.MaxVarintLen64]byte
	h := append(head[:0], id...)
	if rec != "" {
		h = append(h, rec[:cluster.IDLen]...)
	}
	h = binary.AppendVarint(h, int64(count))
	return string(h) + string(e.Bytes()) // one allocation
}
