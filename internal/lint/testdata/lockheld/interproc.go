// Interprocedural lockheld cases: calls into functions that may block —
// in this package or another one — are flagged under a held lock, with
// the reason chain in the message; non-blocking callees stay silent.
package lockheld

import (
	"sync"

	"wls/internal/lint/testdata/lockheld/sub"
)

type guarded struct {
	mu sync.Mutex
}

func (g *guarded) badLocalCallee(ch chan int) {
	g.mu.Lock()
	recvLocal(ch) // want "call to lockheld.recvLocal (may block: channel receive)"
	g.mu.Unlock()
}

func (g *guarded) badRemoteCallee(ch chan int) {
	g.mu.Lock()
	sub.Wait(ch) // want "call to sub.Wait (may block: channel receive)"
	g.mu.Unlock()
}

// badTwoHops blocks three frames down: chained through recvIndirect's
// summary onto recvLocal's.
func (g *guarded) badTwoHops(ch chan int) {
	g.mu.Lock()
	recvIndirect(ch) // want "call to lockheld.recvIndirect (may block: lockheld.recvLocal"
	g.mu.Unlock()
}

func (g *guarded) okNonBlockingCallee(ch chan int) {
	g.mu.Lock()
	sub.Peek(ch)
	g.mu.Unlock()
}

// okCalleeOnlySpawns calls a function that only starts a goroutine which
// blocks: the go statement's callee is no call of spawnRecv, so spawnRecv
// does not block.
func (g *guarded) okCalleeOnlySpawns(ch chan int) {
	g.mu.Lock()
	spawnRecv(ch)
	g.mu.Unlock()
}

func spawnRecv(ch chan int) {
	go recvLocal(ch)
}

// badCallInComm: a select with a default never waits, but the call in its
// comm clause runs first, and it blocks.
func (g *guarded) badCallInComm(ch, other chan int) {
	g.mu.Lock()
	select {
	case ch <- recvLocal(other): // want "call to lockheld.recvLocal (may block: channel receive)"
	default:
	}
	g.mu.Unlock()
}

func (g *guarded) okCalleeAfterUnlock(ch chan int) {
	g.mu.Lock()
	g.mu.Unlock()
	recvLocal(ch)
}

func recvLocal(ch chan int) int {
	return <-ch
}

func recvIndirect(ch chan int) int {
	return recvLocal(ch)
}
