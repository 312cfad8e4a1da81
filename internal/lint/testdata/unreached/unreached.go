// Package unreached is the fixture for the unreached analyzer: cmd/ is
// its one binary, and fixturetest/ a test-helper package.
package unreached

import "reflect"

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

// Disc is never in a Shape, but a call through Shape.Area reaches every
// module method of that name.
type Disc struct{ R int }

// Area is reached by the fan-out.
func (d Disc) Area() int { return 3 * d.R * d.R }

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
