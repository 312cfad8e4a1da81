// Package sub gives the lockheld fixture a blocking function in another
// package, proving may-block propagates through exported facts.
package sub

// Wait blocks on a channel receive; lockheld exports a may-block fact for it.
func Wait(ch chan int) int {
	return <-ch
}

// Peek never blocks: select with a default.
func Peek(ch chan int) (int, bool) {
	select {
	case v := <-ch:
		return v, true
	default:
		return 0, false
	}
}
