// Package attrs owns the attribute list, the one shape key/value state
// takes on the wire and at rest: session records, deltas, fetch replies
// and cookie state (servlet), row records, staged votes and binary
// RowSets (store), entity cache values (ejb), persisted and exported
// conversations (wsdl) and domain config (core). Each of those writes its
// own header and hands the list to this package.
//
// A list is a zig-zag varint count, then that many pairs, each a key and
// a value, each a uvarint-length-prefixed string. Writers put the keys in
// ascending order, each once, so equal state encodes to equal bytes.
//
// The count rule: a list that comes from outside is checked (Check, Read)
// before anything reads it. Its count is at most half the bytes after it,
// since a pair takes two length bytes or more, and every length is in
// bounds, so a lying count fails before anything is sized by it. The
// readers (Walk, Len, Lookup, Map, Merge) read a checked list in place;
// one that was not checked reads short, never out of range.
package attrs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"strings"

	"wls/internal/wire"
)

// Bytes is what a list is read from: a string, whose keys and values are
// read as substrings, or a byte slice, which they alias.
type Bytes interface{ ~string | ~[]byte }

// Empty is the list of no attributes: a count of zero.
const Empty = "\x00"

// Pair is one attribute.
type Pair struct{ K, V string }

// The ways a list can be malformed. They are sentinels, never a decoder's
// own error, so a list in a caller's stack buffer does not escape with one.
var (
	errCount  = errors.New("attrs: count does not fit the list")
	errLength = errors.New("attrs: length out of bounds")
	errOrder  = errors.New("attrs: keys out of order")
)

// AppendPairs writes ps as a list, in their order.
func AppendPairs(e *wire.Encoder, ps []Pair) {
	e.Int(len(ps))
	for _, p := range ps {
		e.String(p.K)
		e.String(p.V)
	}
}

// AppendMap writes m as a list in key order.
func AppendMap(e *wire.Encoder, m map[string]string) {
	AppendPairs(e, Sorted(make([]Pair, 0, len(m)), m))
}

// Sorted appends m's pairs to buf, which is empty, sorts them by key and
// returns buf.
func Sorted(buf []Pair, m map[string]string) []Pair {
	for k, v := range m {
		buf = append(buf, Pair{k, v})
	}
	slices.SortFunc(buf, func(a, b Pair) int { return strings.Compare(a.K, b.K) })
	return buf
}

// Check checks the list that begins b and returns its size in bytes; any
// bytes after it are the caller's. The count must be at most half the
// bytes after it, every length must be in bounds, and with sorted every
// key must be greater than the one before it.
func Check[B Bytes](b B, sorted bool) (size int, err error) {
	c := Walk(b)
	if n, _ := count(b); n != c.left {
		return 0, errCount
	}
	for i := 0; c.left > 0; i++ {
		prev := c.K
		if !c.Next() {
			return 0, errLength
		}
		if sorted && i > 0 && string(c.K) <= string(prev) {
			return 0, errOrder
		}
	}
	return c.off, nil
}

// Read checks the list at d's position, as Check does, and consumes it.
// The bytes returned alias d's buffer.
func Read(d *wire.Decoder, sorted bool) ([]byte, error) {
	probe := *d
	size, err := Check(probe.Raw(uint64(probe.Remaining())), sorted)
	if err != nil {
		return nil, err
	}
	return d.Raw(uint64(size)), nil
}

// Cursor walks a list's pairs in place: K and V are the pair Next moved
// to.
type Cursor[B Bytes] struct {
	K, V      B
	list      B
	off, left int
	at        span // where K and V lie in list
}

// Walk returns a cursor before list's first pair.
func Walk[B Bytes](list B) Cursor[B] {
	n, off := count(list)
	return Cursor[B]{list: list, off: off, left: max(0, min(n, (len(list)-off)/2))}
}

// Next moves to the next pair, and reports false past the last one or
// where the list runs short.
func (c *Cursor[B]) Next() bool {
	if c.left == 0 {
		return false
	}
	p, ok := pairAt(c.list, c.off)
	if !ok {
		c.left = 0
		return false
	}
	c.K, c.V = c.list[p.k0:p.k1], c.list[p.v0:p.v1]
	c.at, c.off, c.left = p, p.v1, c.left-1
	return true
}

// Len returns how many pairs list holds.
func Len[B Bytes](list B) int { return Walk(list).left }

// Lookup returns k's value in list, whose keys ascend, and whether list
// holds k. The walk stops at the first key past k.
func Lookup[B Bytes](list B, k string) (B, bool) {
	for c := Walk(list); c.Next() && string(c.K) <= k; {
		if string(c.K) == k {
			return c.V, true
		}
	}
	var none B
	return none, false
}

// Map returns list's pairs as a new map, never nil. Of a key listed
// twice, the last value wins.
func Map[B Bytes](list B) map[string]string {
	c := Walk(list)
	m := make(map[string]string, c.left)
	for c.Next() {
		m[string(c.K)] = string(c.V)
	}
	return m
}

// Merge returns the record that writing upd over rec makes. rec is a
// header of hdr bytes, then a list in key order, each key once; upd is a
// list Check accepted, its keys in any order, a key perhaps twice. The
// result is rec's header, then rec's pairs with each key of upd set to the
// value upd gives it last, in key order: one new string, or rec itself
// when upd changes nothing. With rec "" the record is new: head is its
// header, and upd is all it holds.
func Merge(rec string, hdr int, head, upd []byte) string {
	old := Empty
	if rec != "" {
		old = rec[hdr:]
	}
	c := Walk(upd)
	var small [8]span
	ups := small[:0]
	if c.left > len(small) {
		ups = make([]span, 0, c.left)
	}
	for c.Next() {
		ups = append(ups, c.at)
	}
	// In key order, and of a key written twice only its last value: the
	// sort is stable, so that is the last of each run.
	key := func(p span) []byte { return upd[p.k0:p.k1] }
	slices.SortStableFunc(ups, func(a, b span) int { return bytes.Compare(key(a), key(b)) })
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
	oc := Walk(old)
	more := oc.Next()
	n, changed := 0, rec == ""
	for ; more || len(ups) > 0; n++ {
		if len(ups) == 0 || more && oc.K < string(key(ups[0])) {
			e.Raw(old[oc.at.p0:oc.at.v1])
			more = oc.Next()
			continue
		}
		uk, uv := key(ups[0]), upd[ups[0].v0:ups[0].v1]
		if more && oc.K == string(uk) {
			changed = changed || oc.V != string(uv)
			more = oc.Next()
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
	var cnt [binary.MaxVarintLen64]byte
	k := binary.PutVarint(cnt[:], int64(n))
	if rec != "" {
		return rec[:hdr] + string(cnt[:k]) + string(e.Bytes()) // one allocation
	}
	return string(head) + string(cnt[:k]) + string(e.Bytes())
}

// span is where a pair lies in its list, from p0, its key's length, to
// v1: offsets, not slices, so a list being merged does not escape.
type span struct{ p0, k0, k1, v0, v1 int }

// count reads the count at the start of b and returns it and the offset
// after it; n is -1 when there is none.
func count[B Bytes](b B) (n, off int) {
	u, off, ok := uvarint(b, 0)
	if !ok {
		return -1, 0
	}
	return int(int64(u>>1) ^ -int64(u&1)), off
}

// pairAt reads the pair at b[off:]; ok is false when it runs past b.
func pairAt[B Bytes](b B, off int) (p span, ok bool) {
	p.p0 = off
	if p.k0, p.k1, ok = str(b, off); ok {
		p.v0, p.v1, ok = str(b, p.k1)
	}
	return p, ok
}

// str reads the length-prefixed string at b[off:] and returns where its
// bytes lie.
func str[B Bytes](b B, off int) (s0, s1 int, ok bool) {
	n, s0, ok := uvarint(b, off)
	if !ok || n > uint64(len(b)-s0) {
		return 0, 0, false
	}
	return s0, s0 + int(n), true
}

// uvarint reads the uvarint at b[off:] as binary.Uvarint does: one that
// runs past b or overflows 64 bits is not ok.
func uvarint[B Bytes](b B, off int) (v uint64, next int, ok bool) {
	for i := 0; i < binary.MaxVarintLen64 && off+i < len(b); i++ {
		c := b[off+i]
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				return 0, 0, false
			}
			return v | uint64(c)<<(7*i), off + i + 1, true
		}
		v |= uint64(c&0x7f) << (7 * i)
	}
	return 0, 0, false
}
