package benchtest

import (
	"math/rand"
	"sync"
	"time"
)

// Arrival produces inter-arrival gaps: the time between one virtual user
// (open loop: one request) entering the system and the next. All
// implementations are seeded and deterministic.
type Arrival interface {
	// Gap returns the delay before the next arrival. elapsed is the time
	// since the run started, letting time-varying processes (flash crowds)
	// shape their rate.
	Gap(elapsed time.Duration) time.Duration
}

// Poisson models independent users: exponentially distributed
// inter-arrival gaps around a mean rate (arrivals per second).
type Poisson struct {
	mu   sync.Mutex
	rng  *rand.Rand
	mean time.Duration
}

// NewPoisson returns a Poisson process with the given arrivals-per-second
// rate.
func NewPoisson(seed int64, perSecond float64) *Poisson {
	if perSecond <= 0 {
		perSecond = 1
	}
	return &Poisson{
		rng:  rand.New(rand.NewSource(seed)),
		mean: time.Duration(float64(time.Second) / perSecond),
	}
}

// Gap implements Arrival.
func (p *Poisson) Gap(time.Duration) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return time.Duration(p.rng.ExpFloat64() * float64(p.mean))
}

// FlashCrowd wraps a base process and multiplies its rate (divides its
// gaps) by Factor during the [Start, Start+Width) window — the
// tail-at-saturation scenario E33's admission phase drives.
type FlashCrowd struct {
	Base   Arrival
	Start  time.Duration
	Width  time.Duration
	Factor float64 // rate multiplier during the crowd, e.g. 10
}

// Gap implements Arrival.
func (f FlashCrowd) Gap(elapsed time.Duration) time.Duration {
	g := f.Base.Gap(elapsed)
	if f.Factor > 1 && elapsed >= f.Start && elapsed < f.Start+f.Width {
		g = time.Duration(float64(g) / f.Factor)
	}
	return g
}
