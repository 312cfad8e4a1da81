// Package fixturetest is a test-helper package: nothing in it is
// reported, what only it calls is, and so is a setting only it writes.
package fixturetest

import "wls/internal/lint/testdata/unreached"

// Helper is never reported.
func Helper() { unreached.OnlyTestsCall() }

// Configure writes a setting no other code writes: a test's write.
func Configure() *unreached.Settings { return &unreached.Settings{HelperSet: 1} }
