package benchtest

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestClosedLoopBudgetAndSessions(t *testing.T) {
	eng := NewEngine(EngineConfig{Users: 4, Requests: 10, SessionRequests: 3})
	var mu sync.Mutex
	seen := map[int]map[int]int{} // user -> session -> requests
	rep := eng.Run(func(op Op) error {
		mu.Lock()
		defer mu.Unlock()
		if seen[op.User] == nil {
			seen[op.User] = map[int]int{}
		}
		if op.SessionSeq != seen[op.User][op.Session] {
			t.Errorf("user %d session %d: seq %d, want %d", op.User, op.Session, op.SessionSeq, seen[op.User][op.Session])
		}
		seen[op.User][op.Session]++
		return nil
	})
	if rep.Issued != 40 || rep.OK != 40 || rep.Errors != 0 {
		t.Fatalf("issued=%d ok=%d errs=%d, want 40/40/0", rep.Issued, rep.OK, rep.Errors)
	}
	// 10 requests at 3/session = sessions 0,1,2,3 per user.
	if rep.Sessions != 16 {
		t.Fatalf("sessions=%d, want 16", rep.Sessions)
	}
	for u, sessions := range seen {
		if len(sessions) != 4 {
			t.Fatalf("user %d ran %d sessions, want 4", u, len(sessions))
		}
	}
	if rep.Latency.Count() != 40 {
		t.Fatalf("latency samples=%d, want 40", rep.Latency.Count())
	}
}

func TestClosedLoopErrorsCounted(t *testing.T) {
	eng := NewEngine(EngineConfig{Users: 2, Requests: 5})
	boom := errors.New("boom")
	rep := eng.Run(func(op Op) error {
		if op.SessionSeq%2 == 1 {
			return boom
		}
		return nil
	})
	if rep.Issued != 10 || rep.Errors != 4 || rep.OK != 6 {
		t.Fatalf("issued=%d ok=%d errs=%d, want 10/6/4", rep.Issued, rep.OK, rep.Errors)
	}
}

func TestOpenLoopShedsAtCap(t *testing.T) {
	block := make(chan struct{})
	eng := NewEngine(EngineConfig{
		Users: 8, Requests: 50, OpenLoop: true, MaxInFlight: 2,
	})
	done := make(chan Report, 1)
	go func() {
		done <- eng.Run(func(Op) error {
			<-block
			return nil
		})
	}()
	time.Sleep(50 * time.Millisecond)
	close(block)
	rep := <-done
	if rep.Shed == 0 {
		t.Fatalf("open loop at MaxInFlight=2 shed nothing (issued=%d)", rep.Issued)
	}
	if rep.Issued+rep.Shed != 50 {
		t.Fatalf("issued+shed=%d, want 50", rep.Issued+rep.Shed)
	}
}

func TestPoissonArrivalsMeanRate(t *testing.T) {
	p := NewPoisson(1, 1000) // 1000/s → mean gap 1ms
	var total time.Duration
	const n = 5000
	for i := 0; i < n; i++ {
		total += p.Gap(0)
	}
	mean := total / n
	if mean < 700*time.Microsecond || mean > 1300*time.Microsecond {
		t.Fatalf("mean gap %v, want ≈1ms", mean)
	}
}

func TestFlashCrowdWindow(t *testing.T) {
	fc := FlashCrowd{
		Base:   ConstantRate{Interval: 10 * time.Millisecond},
		Start:  time.Second,
		Width:  time.Second,
		Factor: 10,
	}
	if g := fc.Gap(0); g != 10*time.Millisecond {
		t.Fatalf("pre-crowd gap %v", g)
	}
	if g := fc.Gap(1500 * time.Millisecond); g != time.Millisecond {
		t.Fatalf("in-crowd gap %v, want 1ms", g)
	}
	if g := fc.Gap(2500 * time.Millisecond); g != 10*time.Millisecond {
		t.Fatalf("post-crowd gap %v", g)
	}
}

func TestClosedLoopDeadline(t *testing.T) {
	eng := NewEngine(EngineConfig{Users: 2, Duration: 60 * time.Millisecond})
	start := time.Now()
	rep := eng.Run(func(Op) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("deadline run took %v", el)
	}
	if rep.Issued == 0 {
		t.Fatal("deadline run issued nothing")
	}
}

// ConstantRate spaces arrivals evenly at the given rate.
type ConstantRate struct {
	Interval time.Duration
}

// Gap implements Arrival.
func (c ConstantRate) Gap(time.Duration) time.Duration { return c.Interval }
