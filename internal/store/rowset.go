package store

import (
	"encoding/xml"
	"fmt"
	"maps"

	"wls/internal/attrs"
	"wls/internal/wire"
)

// RowSet is a disconnected, table-oriented query result (§3.3): "A RowSet
// may be serialized into binary or XML format, sent across the network to a
// client, updated on that client, sent back to the server, and then
// submitted to the database." Each row remembers the field values it was
// read with, and Submit enforces them optimistically with an extra WHERE
// clause per update.
type RowSet struct {
	Table string
	Rows  []RowSetRow
}

// RowSetRow is one disconnected row: Orig holds the values as read (the
// optimistic baseline); Cur holds the client's edits. Deleted marks the row
// for removal on submit.
type RowSetRow struct {
	Key     string
	Orig    map[string]string
	Cur     map[string]string
	Deleted bool
}

// Query builds a RowSet from the committed rows matching filter.
func (s *Store) Query(table string, filter func(Row) bool) *RowSet {
	rs := &RowSet{Table: table}
	for _, r := range s.Scan(table, filter) {
		rs.Rows = append(rs.Rows, RowSetRow{
			Key:  r.Key,
			Orig: r.Fields,
			Cur:  maps.Clone(r.Fields),
		})
	}
	return rs
}

// Set updates a field on the disconnected copy.
func (rs *RowSet) Set(key, field, value string) bool {
	for i := range rs.Rows {
		if rs.Rows[i].Key == key {
			rs.Rows[i].Cur[field] = value
			return true
		}
	}
	return false
}

// MarkDeleted flags a row for deletion at submit.
func (rs *RowSet) MarkDeleted(key string) bool {
	for i := range rs.Rows {
		if rs.Rows[i].Key == key {
			rs.Rows[i].Deleted = true
			return true
		}
	}
	return false
}

// Get returns the current (possibly edited) value of a field.
func (rs *RowSet) Get(key, field string) (string, bool) {
	for i := range rs.Rows {
		if rs.Rows[i].Key == key {
			v, ok := rs.Rows[i].Cur[field]
			return v, ok
		}
	}
	return "", false
}

// dirty reports the rows whose Cur differs from Orig (or are deleted).
func (rs *RowSet) dirty() []RowSetRow {
	var out []RowSetRow
	for _, r := range rs.Rows {
		if r.Deleted || !equalFields(r.Orig, r.Cur) {
			out = append(out, r)
		}
	}
	return out
}

func equalFields(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// Submit stages the RowSet's dirty rows into the transactional session,
// each conditioned on its original values. The conflict (if any) surfaces
// at prepare/commit time as ErrConflict.
func (rs *RowSet) Submit(sess *Session) {
	for _, r := range rs.dirty() {
		if r.Deleted {
			sess.stage(stagedWrite{
				kind: writeDelete, table: rs.Table, key: r.Key,
				expectFields: fieldsOf(r.Orig),
			}, nil)
			continue
		}
		sess.UpdateWhere(rs.Table, r.Key, r.Orig, r.Cur)
	}
}

// ---------------------------------------------------------------------------
// Binary serialization

// EncodeBinary serializes the RowSet with the wire encoding: each row's
// key, its deleted flag, then its original and current fields, each an
// attribute list in key order.
func (rs *RowSet) EncodeBinary() []byte {
	e := wire.NewEncoder(256)
	e.String(rs.Table)
	e.Int(len(rs.Rows))
	for _, r := range rs.Rows {
		e.String(r.Key)
		e.Bool(r.Deleted)
		attrs.AppendMap(e, r.Orig)
		attrs.AppendMap(e, r.Cur)
	}
	return e.Bytes()
}

// DecodeBinary reverses EncodeBinary.
func DecodeBinary(b []byte) (*RowSet, error) {
	d := wire.NewDecoder(b)
	rs := &RowSet{Table: d.String()}
	n := d.Count(4) // a row is at least its key, its flag and two lists
	if err := d.Err(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		r := RowSetRow{Key: d.String(), Deleted: d.Bool()}
		orig, err := attrs.Read(d, true)
		if err != nil {
			return nil, fmt.Errorf("store: rowset row %d: %w", i, err)
		}
		cur, err := attrs.Read(d, true)
		if err != nil {
			return nil, fmt.Errorf("store: rowset row %d: %w", i, err)
		}
		r.Orig, r.Cur = attrs.Map(orig), attrs.Map(cur)
		rs.Rows = append(rs.Rows, r)
	}
	return rs, d.Err()
}

// ---------------------------------------------------------------------------
// XML serialization

type xmlRowSet struct {
	XMLName xml.Name `xml:"rowset"`
	Table   string   `xml:"table,attr"`
	Rows    []xmlRow `xml:"row"`
}

type xmlRow struct {
	Key     string     `xml:"key,attr"`
	Deleted bool       `xml:"deleted,attr,omitempty"`
	Orig    []xmlField `xml:"orig>field"`
	Cur     []xmlField `xml:"cur>field"`
}

type xmlField struct {
	Name  string `xml:"name,attr"`
	Value string `xml:",chardata"`
}

func toXMLFields(m map[string]string) []xmlField {
	out := make([]xmlField, 0, len(m))
	for _, f := range fieldsOf(m) {
		out = append(out, xmlField{Name: f.K, Value: f.V})
	}
	return out
}

func fromXMLFields(fs []xmlField) map[string]string {
	m := make(map[string]string, len(fs))
	for _, f := range fs {
		m[f.Name] = f.Value
	}
	return m
}

// EncodeXML serializes the RowSet as XML (the format the paper names for
// sending RowSets to loosely-coupled clients).
func (rs *RowSet) EncodeXML() ([]byte, error) {
	x := xmlRowSet{Table: rs.Table}
	for _, r := range rs.Rows {
		x.Rows = append(x.Rows, xmlRow{
			Key: r.Key, Deleted: r.Deleted,
			Orig: toXMLFields(r.Orig), Cur: toXMLFields(r.Cur),
		})
	}
	return xml.MarshalIndent(x, "", "  ")
}

// DecodeXML reverses EncodeXML.
func DecodeXML(b []byte) (*RowSet, error) {
	var x xmlRowSet
	if err := xml.Unmarshal(b, &x); err != nil {
		return nil, err
	}
	rs := &RowSet{Table: x.Table}
	for _, r := range x.Rows {
		rs.Rows = append(rs.Rows, RowSetRow{
			Key: r.Key, Deleted: r.Deleted,
			Orig: fromXMLFields(r.Orig), Cur: fromXMLFields(r.Cur),
		})
	}
	return rs, nil
}
