// Package fixturetest is a test-helper package: nothing in it is
// reported, and what only it calls is.
package fixturetest

import "wls/internal/lint/testdata/unreached"

// Helper is never reported.
func Helper() { unreached.OnlyTestsCall() }
