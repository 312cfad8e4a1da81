// The request generators the experiments drive the system with: key
// distributions (uniform, Zipf), service times and closed-loop client
// pools. Everything is seeded and deterministic.

package benchtest

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// KeyGen produces keys for a keyed workload.
type KeyGen interface {
	Next() string
}

// Uniform picks uniformly from n keys.
type Uniform struct {
	mu  sync.Mutex
	rng *rand.Rand
	n   int
}

// NewUniform returns a uniform generator over key0..key{n-1}.
func NewUniform(seed int64, n int) *Uniform {
	return &Uniform{rng: rand.New(rand.NewSource(seed)), n: n}
}

// Next implements KeyGen.
func (u *Uniform) Next() string {
	u.mu.Lock()
	defer u.mu.Unlock()
	return fmt.Sprintf("key%d", u.rng.Intn(u.n))
}

// Zipf skews access toward low-numbered keys, the standard model for
// hot-entity workloads (E12's hot rows).
type Zipf struct {
	mu sync.Mutex
	z  *rand.Zipf
}

// NewZipf returns a Zipf generator over n keys with skew s (>1; larger is
// more skewed).
func NewZipf(seed int64, n int, s float64) *Zipf {
	rng := rand.New(rand.NewSource(seed))
	return &Zipf{z: rand.NewZipf(rng, s, 1, uint64(n-1))}
}

// Next implements KeyGen.
func (z *Zipf) Next() string {
	z.mu.Lock()
	defer z.mu.Unlock()
	return fmt.Sprintf("key%d", z.z.Uint64())
}

// ServiceTime produces per-request compute times.
type ServiceTime struct {
	mu   sync.Mutex
	rng  *rand.Rand
	mean time.Duration
	// cv is the coefficient of variation: 0 = constant, 1 ≈ exponential.
	cv float64
}

// NewServiceTime returns a generator with the given mean and variability.
func NewServiceTime(seed int64, mean time.Duration, cv float64) *ServiceTime {
	return &ServiceTime{rng: rand.New(rand.NewSource(seed)), mean: mean, cv: cv}
}

// Next returns the next service time.
func (s *ServiceTime) Next() time.Duration {
	if s.cv == 0 {
		return s.mean
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Exponential scaled toward the requested cv.
	exp := s.rng.ExpFloat64() * float64(s.mean)
	blend := s.cv*exp + (1-s.cv)*float64(s.mean)
	if blend < 0 {
		blend = 0
	}
	return time.Duration(blend)
}

// Clients runs a closed-loop client pool: n clients each issue requests
// back-to-back for the given iteration count, collecting into fn.
func Clients(n, perClient int, fn func(client, i int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				fn(c, i)
			}
		}()
	}
	wg.Wait()
}
