package unreached

import "testing"

// TestRecord reads record.testOnly, which a test file's read does not keep.
func TestRecord(t *testing.T) {
	r := &record{testOnly: 1}
	if r.testOnly != 1 {
		t.Fatal(r.testOnly)
	}
}
