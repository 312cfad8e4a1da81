// Fixture for the lockheld analyzer: blocking operations while a sync
// mutex is held are diagnosed; lock-free blocking, non-blocking selects,
// goroutine literals, and Cond.Wait are not.
package lockheld

import (
	"context"
	"sync"
	"time"

	"wls/internal/rmi"
	"wls/internal/vclock"
	"wls/internal/wire"
)

func badSend(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	ch <- 1 // want "channel send while mu is locked"
	mu.Unlock()
}

func badRecvUnderDefer(mu *sync.RWMutex, ch chan int) int {
	mu.RLock()
	defer mu.RUnlock()
	return <-ch // want "channel receive while mu is locked"
}

func badSelect(mu *sync.Mutex, a, b chan int) {
	mu.Lock()
	defer mu.Unlock()
	select { // want "select while mu is locked"
	case <-a:
	case <-b:
	}
}

func badClockSleep(mu *sync.Mutex, clk vclock.Clock) {
	mu.Lock()
	clk.Sleep(time.Millisecond) // want "Clock.Sleep while mu is locked"
	mu.Unlock()
}

func badWaitGroup(mu *sync.Mutex, wg *sync.WaitGroup) {
	mu.Lock()
	wg.Wait() // want "WaitGroup.Wait while mu is locked"
	mu.Unlock()
}

// badNodeCall calls through the seam rmi reaches a fabric by: an
// interface method, known to block by name.
func badNodeCall(mu *sync.Mutex, n rmi.Node, f wire.Frame) {
	mu.Lock()
	n.Call(context.Background(), "peer", f) // want "rmi.Node.Call while mu is locked"
	mu.Unlock()
}

func badEmbedded(reg *registry, ch chan int) {
	reg.mu.Lock()
	ch <- 1 // want "channel send while reg.mu is locked"
	reg.mu.Unlock()
}

type registry struct {
	mu sync.Mutex
}

func okUnlockedFirst(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	mu.Unlock()
	ch <- 1
}

func okSelectWithDefault(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	defer mu.Unlock()
	select {
	case v := <-ch:
		_ = v
	default:
	}
}

func okGoroutineLiteral(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	go func() { ch <- 1 }() // runs on its own goroutine, lock not held there
	mu.Unlock()
}

func okCondWait(mu *sync.Mutex, c *sync.Cond) {
	mu.Lock()
	c.Wait() // Cond.Wait is specified to hold the lock
	mu.Unlock()
}

func okSuppressed(mu *sync.Mutex, clk vclock.Clock) {
	mu.Lock()
	//wls:nolint lockheld -- fixture: the sleep models service time under the lock
	clk.Sleep(time.Millisecond)
	mu.Unlock()
}
