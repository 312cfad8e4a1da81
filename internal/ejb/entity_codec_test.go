package ejb

import (
	"bytes"
	"fmt"
	"maps"
	"testing"

	"wls/internal/store"
)

// TestEntityCacheValueIsDeterministic: a bean's cache value lists its
// fields in key order, so the same row encodes to the same bytes every
// time, and decodes to the row.
func TestEntityCacheValueIsDeterministic(t *testing.T) {
	row := store.Row{Key: "a1", Version: 3, Fields: map[string]string{}}
	for i := 0; i < 8; i++ {
		row.Fields[fmt.Sprintf("f%d", i)] = fmt.Sprint(i)
	}
	first := encodeEntity(row)
	for i := 0; i < 20; i++ {
		if got := encodeEntity(row); !bytes.Equal(got, first) {
			t.Fatalf("encoding %d: %x, the first %x", i, got, first)
		}
	}
	fields, version, err := decodeEntity(first)
	if err != nil || version != row.Version || !maps.Equal(fields, row.Fields) {
		t.Fatalf("decoded %v at version %d, %v; want %v at %d", fields, version, err, row.Fields, row.Version)
	}
}
