// Package unreached is the fixture for the unreached analyzer: cmd/ is
// its one binary, and fixturetest/ a test-helper package.
package unreached

import (
	"encoding/json"
	"reflect"
)

// Dead is named by nothing.
func Dead() {} // want "unreached.Dead is reached by no binary"

// ByName calls a method chosen at run time.
func ByName(v any) {
	reflect.ValueOf(v).MethodByName("Area").Call(nil) // want "MethodByName calls methods" "Call calls methods"
}

// Shape is called through by the binary.
type Shape interface{ Area() int }

// Square reaches the binary only inside a Shape.
type Square struct{ Side int }

// Area is reached through the interface call Shape.Area alone.
func (s Square) Area() int { return s.Side * s.Side }

// Perimeter is never called, through an interface or not.
func (s Square) Perimeter() int { return 4 * s.Side } // want "unreached.Square.Perimeter is reached by no binary"

// String is reached because fmt calls it through fmt.Stringer.
func (s Square) String() string { return "square" }

// Disc is never in a Shape, but it implements Shape, so a call through
// Shape.Area may run its Area.
type Disc struct{ R int } // want "unreached.Disc.R is set by no non-test code"

// Area is reached by the fan-out to implementers.
func (d Disc) Area() int { return 3 * d.R * d.R }

// Room has an Area, of another signature: it is no Shape.
type Room struct{ W, L float64 } // want "unreached.Room.W is set" "unreached.Room.L is set"

// Area is not reached by a call through Shape.Area.
func (r Room) Area() float64 { return r.W * r.L } // want "unreached.Room.Area is reached by no binary"

// Sizer is called through by the binary; base has half of it.
type Sizer interface {
	Size() int
	Label() string
}

type base struct{ n int }

// Size is reached through File, which embeds base and is a Sizer.
func (b base) Size() int { return b.n }

// File is a Sizer through its embedded base; the embedded field is never
// reported.
type File struct {
	base
	name string
}

// Label is reached through the interface call Sizer.Label.
func (f File) Label() string { return f.name }

// NewFile is called by the binary.
func NewFile(name string) File { return File{base{1}, name} }

// record's fields are written; some are read.
type record struct {
	written  int // want "unreached.record.written is never read"
	testOnly int // want "unreached.record.testOnly is never read"
	bumped   int
}

// Touch writes every field of a record; x.f++ reads bumped.
func Touch() {
	r := &record{written: 1}
	r.testOnly = 2
	r.bumped++
}

// linkKey keys a map, so each lookup reads both its fields.
type linkKey struct{ from, to string }

var links = map[linkKey]bool{}

// Link fills links.
func Link(from, to string) { links[linkKey{from, to}] = true }

// version is compared with ==, which reads both its fields.
type version struct{ major, minor int }

// Same compares two versions.
func Same(a, b int) bool { return version{major: a} == version{major: b} }

// list is generic: a method of its instance reads items.
type list[T any] struct{ items []T }

func (l *list[T]) first() T { return l.items[0] }

// First is called by the binary.
func First() int { return (&list[int]{items: []int{1}}).first() }

// Counter's Inc is only ever taken as a method value.
type Counter struct{ n int }

// Inc is reached as a value.
func (c *Counter) Inc() { c.n++ }

// Reset is not.
func (c *Counter) Reset() { c.n = 0 } // want "unreached.Counter.Reset is reached by no binary"

var table = buildTable()

// buildTable is reached from a package-level initializer.
func buildTable() []int { return []int{1} }

func init() { initHelper() }

// initHelper is reached from init.
func initHelper() {}

// Map is reached through its instance Map[int].
func Map[T any](xs []T, f func(T) T) []T {
	for i := range xs {
		xs[i] = f(xs[i])
	}
	return xs
}

// Box is a generic type whose method is reached through Box[int].
type Box[T any] struct{ V T }

// Get is reached through the instantiated method.
func (b Box[T]) Get() T { return b.V }

// Unused is generic and never instantiated.
func Unused[T any](v T) T { return v } // want "unreached.Unused is reached by no binary"

// OnlyTestsCall is called by a *test package alone, which counts as a test.
func OnlyTestsCall() {} // want "unreached.OnlyTestsCall is reached by no binary"

// Library is a declared entry point: it, its callees and the exported
// methods of what it returns are reached.
//
//wls:nolint unreached -- library-only: §4, TestLibrary
func Library() *Client {
	Helper()
	return newClient()
}

func newClient() *Client { return &Client{} }

// Client is what Library hands out.
type Client struct{}

// Do is reached because Library returns a *Client.
func (c *Client) Do() {}

// helper is unexported, so returning a Client does not reach it.
func (c *Client) helper() {} // want "unreached.Client.helper is reached by no binary"

// Reached is called by the binary; its directive is stale.
//
/* want "unreached.Reached is reached without this directive" */ //wls:nolint unreached -- test hook: TestReached
func Reached() {
}

// Helper is called from Library, so its own directive is stale too.
//
/* want "unreached.Helper is reached without this directive" */ //wls:nolint unreached -- test hook: TestHelper
func Helper() {
}

// Unexplained gives no reason of the four kinds.
//
/* want "must give its reason" */ //wls:nolint unreached -- nice to have
func Unexplained() {
}

// Misplaced carries its directive in its body, where it roots nothing.
func Misplaced() { // want "unreached.Misplaced is reached by no binary"
	/* want "belongs in the doc comment" */ //wls:nolint unreached -- test hook: TestMisplaced
}

// Settings has a field per write form, each written outside a test.
type Settings struct {
	Assigned  int
	Added     int
	Bumped    int
	Dropped   int
	Keyed     int
	Addressed int
	Defaulted int // want "unreached.Settings.Defaulted is set by no non-test code"
	TestSet   int // want "unreached.Settings.TestSet is set by no non-test code"
	HelperSet int // want "unreached.Settings.HelperSet is set by no non-test code"
	// Kept is set by a test alone, which its directive declares.
	//
	//wls:nolint unreached -- test hook: TestSettings
	Kept int
}

// Aged's field is written, so its directive keeps nothing.
type Aged struct {
	// Stale is written by Configure.
	//
	/* want "unreached.Aged.Stale is written without this directive" */ //wls:nolint unreached -- test hook: TestSettings
	Stale int
}

// Hidden's unexported field has no directive form, read or not.
type Hidden struct {
	// shown is read by Show.
	//
	/* want "belongs in the doc comment" */ //wls:nolint unreached -- test hook: TestSettings
	shown int
}

// Show reads Hidden.shown.
func Show(h Hidden) int { return h.shown }

// Pair is written by position.
type Pair struct{ Left, Right int }

// Configure writes Settings every way but one: Defaulted is only filled
// in when unset, which sets nothing.
func Configure() (*Settings, Pair, Aged) {
	s := &Settings{Keyed: 1}
	s.Assigned = 2
	s.Added += 3
	s.Bumped++
	s.Dropped--
	p := &s.Addressed
	*p = 4
	if s.Defaulted == 0 {
		s.Defaulted = 5
	}
	var a Aged
	a.Stale = 6
	return s, Pair{1, 2}, a
}

// Tagged carries field tags: what fills it is not in the source.
type Tagged struct {
	Name string `json:"name"`
}

// Decoded is filled by encoding/json.
type Decoded struct{ Count int }

// Decode fills a Decoded through reflection.
func Decode(b []byte) (d Decoded) {
	_ = json.Unmarshal(b, &d)
	return d
}

// Knobs are set by tests alone, which the struct's directive declares.
//
//wls:nolint unreached -- item 1: a binary sets them
type Knobs struct{ A, B int }

// Written is written outside a test, so its struct's directive keeps
// nothing.
//
/* want "every field of Written is written without this directive" */ //wls:nolint unreached -- item 1: a binary sets it
type Written struct{ A int }

// NewWritten writes Written.A.
func NewWritten() Written { return Written{A: 1} }
