package benchtest

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestUniformCoversKeySpace(t *testing.T) {
	g := NewUniform(1, 10)
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		k := g.Next()
		if !strings.HasPrefix(k, "key") {
			t.Fatalf("key format: %q", k)
		}
		seen[k] = true
	}
	if len(seen) != 10 {
		t.Fatalf("covered %d keys, want 10", len(seen))
	}
}

func TestUniformDeterministicBySeed(t *testing.T) {
	a, b := NewUniform(7, 100), NewUniform(7, 100)
	for i := 0; i < 50; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestZipfSkewsTowardLowKeys(t *testing.T) {
	g := NewZipf(1, 1000, 1.5)
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		counts[g.Next()]++
	}
	if counts["key0"] < counts["key9"] {
		t.Fatalf("zipf not skewed: key0=%d key9=%d", counts["key0"], counts["key9"])
	}
	if counts["key0"] < 2000 {
		t.Fatalf("key0 only %d of 10000 at s=1.5", counts["key0"])
	}
}

func TestServiceTimeConstant(t *testing.T) {
	s := NewServiceTime(1, time.Millisecond, 0)
	for i := 0; i < 10; i++ {
		if s.Next() != time.Millisecond {
			t.Fatal("cv=0 should be constant")
		}
	}
}

func TestServiceTimeVariabilityMean(t *testing.T) {
	s := NewServiceTime(1, time.Millisecond, 1)
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		d := s.Next()
		if d < 0 {
			t.Fatal("negative service time")
		}
		sum += d
	}
	mean := sum / n
	if mean < 700*time.Microsecond || mean > 1300*time.Microsecond {
		t.Fatalf("mean = %v, want ~1ms", mean)
	}
}

func TestClientsClosedLoop(t *testing.T) {
	var mu sync.Mutex
	calls := map[[2]int]bool{}
	Clients(4, 25, func(c, i int) {
		mu.Lock()
		calls[[2]int{c, i}] = true
		mu.Unlock()
	})
	if len(calls) != 100 {
		t.Fatalf("calls = %d, want 100", len(calls))
	}
}
