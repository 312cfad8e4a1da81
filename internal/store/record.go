package store

import (
	"errors"
	"fmt"

	"wls/internal/attrs"
	"wls/internal/wire"
)

// A row's record in its table's space is the row as the store serves it:
// the store keeps no copy of its own. Reads take the record from the kv
// image as the image's own immutable string (tuple.Store.View) and walk it
// in place, so every field a read hands out is a substring of the record.
//
//	live:      recLive, uvarint version, the row's fields as an attribute list
//	tombstone: recTomb, uvarint version — the last one the row had
//
// The attribute list (internal/attrs) lists the fields in key order, each
// key once.

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
	attrs.AppendPairs(e, fs)
}

// rowRecord is a parsed row record whose fields are still encoded.
type rowRecord struct {
	live    bool
	version uint64
	fields  string // a live row's attribute list
}

// parseRecord reads a record's kind and version. Open has checked every
// record the backend held (checkRecord), and after it only the store
// writes its row spaces; the readers are bounds-checked all the same, so a
// record that does not parse reads short, never out of range.
func parseRecord(rec string) rowRecord {
	d := wire.NewStringDecoder(rec)
	kind := d.Byte()
	version := d.Uint64()
	return rowRecord{live: kind == recLive, version: version, fields: d.Rest()}
}

// checkRecord reports whether rec is a record the store could have
// written: a known kind, and for a live row an attribute list that fills
// the rest of it with its keys strictly ascending.
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
	list := d.Rest()
	size, err := attrs.Check(list, true)
	if err == nil && size < len(list) {
		err = errors.New("bytes past the last field")
	}
	return err
}

// row builds the Row the API hands out, with a field map of its own.
func (r rowRecord) row(key string) Row {
	return Row{Key: key, Fields: attrs.Map(r.fields), Version: r.version}
}
