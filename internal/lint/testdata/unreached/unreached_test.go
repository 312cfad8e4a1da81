package unreached

import "testing"

// TestRecord reads record.testOnly, which a test file's read does not keep.
func TestRecord(t *testing.T) {
	r := &record{testOnly: 1}
	if r.testOnly != 1 {
		t.Fatal(r.testOnly)
	}
}

// TestSettings writes the fields only tests set.
func TestSettings(t *testing.T) {
	s := Settings{TestSet: 1, Kept: 2}
	if s.TestSet+s.Kept != 3 || (Knobs{A: 1}).A != 1 {
		t.Fatal(s)
	}
}
