package store

import (
	"errors"
	"fmt"

	"wls/internal/wire"
)

// A row's record in its table's space is the row as the store serves it:
// the store keeps no copy of its own. Reads take the record from the kv
// image as the image's own immutable string (tuple.Store.View) and walk it
// in place, so every field a read hands out is a substring of the record.
//
//	live:      recLive, uvarint version, zig-zag count, count × (key, value)
//	tombstone: recTomb, uvarint version — the last one the row had
//
// Keys and values are uvarint-length-prefixed; field keys are strictly
// ascending, as encodeFields writes them.

// Row-record kinds on the backend.
const (
	recLive byte = 1
	// recTomb is a tombstone: the row is deleted but its last version is
	// retained, so a later re-insert continues the version sequence
	// instead of restarting at 1 (optimistic readers must never see a
	// version number repeat for a key).
	recTomb byte = 2
)

// encodeRecord writes a row record; a tombstone has no fields.
func encodeRecord(e *wire.Encoder, live bool, version uint64, fs []field) {
	if !live {
		e.Byte(recTomb)
		e.Uint64(version)
		return
	}
	e.Byte(recLive)
	e.Uint64(version)
	encodeFields(e, fs)
}

// rowRecord is a parsed row record whose fields are still encoded.
type rowRecord struct {
	live    bool
	version uint64
	fields  string // a live row's field list
}

// parseRecord reads a record's kind and version. Open has checked every
// record the backend held (checkRecord), and after it only the store
// writes its row spaces; the decoder is bounds-checked all the same, so a
// record that does not parse reads short, never out of range.
func parseRecord(rec string) rowRecord {
	d := wire.NewStringDecoder(rec)
	kind := d.Byte()
	version := d.Uint64()
	return rowRecord{live: kind == recLive, version: version, fields: d.Rest()}
}

// checkRecord reports whether rec is a record the store could have
// written: a known kind, and for a live row a field list that parses to
// its end with its keys strictly ascending.
func checkRecord(rec string) error {
	d := wire.NewStringDecoder(rec)
	kind := d.Byte()
	d.Uint64()
	if kind == recTomb || d.Err() != nil {
		return d.Err()
	}
	if kind != recLive {
		return fmt.Errorf("record kind %d", kind)
	}
	n, prev := d.Int(), ""
	if n < 0 || n > d.Remaining() {
		return fmt.Errorf("field count %d", n)
	}
	for i := 0; i < n; i++ {
		k, _ := d.String(), d.String()
		if i > 0 && k <= prev {
			return fmt.Errorf("field %q out of order", k)
		}
		prev = k
	}
	if d.Err() == nil && d.Remaining() > 0 {
		return errors.New("bytes past the last field")
	}
	return d.Err()
}

// row builds the Row the API hands out, with a field map of its own.
func (r rowRecord) row(key string) Row {
	d := wire.NewStringDecoder(r.fields)
	n := max(d.Int(), 0)
	m := make(map[string]string, min(n, d.Remaining()))
	for ; n > 0 && d.Err() == nil; n-- {
		k := d.String()
		m[k] = d.String()
	}
	return Row{Key: key, Fields: m, Version: r.version}
}

// field returns field k's value, "" when there is no such field. The walk
// stops at the first key past k.
func (r rowRecord) field(k string) string {
	d := wire.NewStringDecoder(r.fields)
	for n := d.Int(); n > 0 && d.Err() == nil; n-- {
		switch fk, v := d.String(), d.String(); {
		case fk == k:
			return v
		case fk > k:
			return ""
		}
	}
	return ""
}
