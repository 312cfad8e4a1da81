package store

import (
	"encoding/xml"
)

// owner reports the current lock owner (for tests).
func (lt *lockTable) ownerOf(table, key string) string {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if l, ok := lt.locks[rowRef{table, key}]; ok {
		return l.owner
	}
	return ""
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

func fromXMLFields(fs []xmlField) map[string]string {
	m := make(map[string]string, len(fs))
	for _, f := range fs {
		m[f.Name] = f.Value
	}
	return m
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

// DeleteVersioned stages a removal conditioned on the row version.
func (se *Session) DeleteVersioned(table, key string, expectVersion uint64) {
	se.stage(stagedWrite{kind: writeDelete, table: table, key: key, expectVersion: expectVersion}, nil)
}

// Count returns the number of rows in a table.
func (s *Store) Count(table string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count(table)
}
