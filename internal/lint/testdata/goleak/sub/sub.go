// Package sub provides a never-returning function so the goleak fixture
// can prove non-termination propagates across packages through facts.
package sub

// Forever spins with no escape; goleak exports a never-returns fact for it.
func Forever() {
	for {
	}
}
