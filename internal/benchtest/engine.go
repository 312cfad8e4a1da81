package benchtest

import (
	"sync"
	"sync/atomic"
	"time"

	"wls/internal/metrics"
)

// Op identifies one request a virtual user issues. The engine tracks
// session identity for the caller: User and Session together name a
// servlet session ("u3-s2"), SessionSeq is the request index within it
// (0 = first request, the one that creates the session).
type Op struct {
	User       int
	Session    int
	SessionSeq int
}

// DoFunc executes one request against the system under test and reports
// whether it succeeded. It is called from many goroutines.
type DoFunc func(op Op) error

// EngineConfig shapes a load run.
type EngineConfig struct {
	// Users is the virtual-user population.
	Users int
	// Arrivals staggers user ramp-in (closed loop) or spaces individual
	// requests (open loop). Nil means everyone starts at once / requests
	// are issued back-to-back.
	Arrivals Arrival
	// Think is the closed-loop pause between a response and the user's
	// next request (nil = none). Open loop ignores it: arrival times, not
	// completions, pace the offered load — that is what makes open loop
	// the saturation mode.
	Think *ServiceTime
	// SessionRequests is the session lifetime in requests: after this many
	// the user abandons the session and starts a fresh one (0 = one
	// session for the whole run).
	SessionRequests int
	// Requests bounds the run: per-user in closed loop, total in open
	// loop. 0 = bounded by Duration only.
	Requests int
	// Duration is an optional wall-clock cutoff (0 = run to Requests).
	Duration time.Duration
	// OpenLoop issues requests at arrival times regardless of outstanding
	// completions; closed loop (default) waits for each response.
	OpenLoop bool
	// MaxInFlight caps outstanding open-loop requests; arrivals beyond the
	// cap are counted Shed rather than issued (default 4096).
	MaxInFlight int
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.Users <= 0 {
		c.Users = 1
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4096
	}
	return c
}

// Report summarizes a run.
type Report struct {
	Issued   int64
	OK       int64
	Errors   int64
	Shed     int64              // open-loop arrivals dropped at the MaxInFlight cap
	Sessions int64              // sessions started across all users
	Latency  *metrics.Histogram // successful-request latency
}

// Engine drives virtual users against a system under test. Construct with
// NewEngine, then Run with the request callback.
type Engine struct {
	cfg EngineConfig
}

// NewEngine returns an engine for the given configuration.
func NewEngine(cfg EngineConfig) *Engine {
	return &Engine{cfg: cfg.withDefaults()}
}

// userState is one virtual user's session bookkeeping; open loop shares it
// across dispatch goroutines, hence the mutex.
type userState struct {
	mu      sync.Mutex
	session int
	seq     int
}

// next returns the user's next Op, rolling to a fresh session every
// SessionRequests requests.
func (u *userState) next(user, sessionRequests int, sessions *int64) Op {
	u.mu.Lock()
	defer u.mu.Unlock()
	if sessionRequests > 0 && u.seq >= sessionRequests {
		u.session++
		u.seq = 0
	}
	if u.seq == 0 {
		atomic.AddInt64(sessions, 1)
	}
	op := Op{User: user, Session: u.session, SessionSeq: u.seq}
	u.seq++
	return op
}

// Run executes the load and blocks until it drains. The engine runs in
// real time (the cluster under test may be on netsim, but user pacing is
// wall-clock), so keep Duration short in tests.
func (e *Engine) Run(do DoFunc) Report {
	cfg := e.cfg
	rep := Report{Latency: metrics.NewRegistry().Histogram("latency")}
	users := make([]userState, cfg.Users)
	start := wall.Now()
	deadline := time.Time{}
	if cfg.Duration > 0 {
		deadline = start.Add(cfg.Duration)
	}
	expired := func() bool {
		return !deadline.IsZero() && wall.Now().After(deadline)
	}
	issue := func(user int) {
		op := users[user].next(user, cfg.SessionRequests, &rep.Sessions)
		atomic.AddInt64(&rep.Issued, 1)
		t0 := wall.Now()
		if err := do(op); err != nil {
			atomic.AddInt64(&rep.Errors, 1)
		} else {
			atomic.AddInt64(&rep.OK, 1)
			rep.Latency.Record(int64(wall.Since(t0)))
		}
	}

	if cfg.OpenLoop {
		e.runOpen(&rep, issue, start, expired)
	} else {
		e.runClosed(issue, start, expired)
	}
	return rep
}

// runClosed ramps Users goroutines in at arrival times; each then loops
// request → think until its budget or the deadline runs out.
func (e *Engine) runClosed(issue func(int), start time.Time, expired func() bool) {
	cfg := e.cfg
	var wg sync.WaitGroup
	var offset time.Duration
	for u := 0; u < cfg.Users; u++ {
		if cfg.Arrivals != nil && u > 0 {
			offset += cfg.Arrivals.Gap(offset)
		}
		wg.Add(1)
		go func(u int, startAt time.Duration) {
			defer wg.Done()
			if d := startAt - wall.Since(start); d > 0 {
				wall.Sleep(d)
			}
			for i := 0; cfg.Requests <= 0 || i < cfg.Requests; i++ {
				if expired() {
					return
				}
				issue(u)
				if cfg.Think != nil {
					wall.Sleep(cfg.Think.Next())
				}
			}
		}(u, offset)
	}
	wg.Wait()
}

// runOpen fires requests at arrival times without waiting for
// completions; outstanding work beyond MaxInFlight is shed.
func (e *Engine) runOpen(rep *Report, issue func(int), start time.Time, expired func() bool) {
	cfg := e.cfg
	var wg sync.WaitGroup
	slots := make(chan struct{}, cfg.MaxInFlight)
	total := 0
	// sched is the cumulative scheduled arrival offset. Sleeping only when
	// meaningfully ahead of schedule — and catching up burst-style when
	// behind — keeps the offered rate at the nominal rate even when
	// individual gaps are far below the sleep granularity (a 16k/s flash
	// crowd has 60µs gaps; time.Sleep cannot pace those one by one).
	var sched time.Duration
	for u := 0; ; u = (u + 1) % cfg.Users {
		if expired() {
			break
		}
		if cfg.Requests > 0 && total >= cfg.Requests {
			break
		}
		total++
		select {
		case slots <- struct{}{}:
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				defer func() { <-slots }()
				issue(u)
			}(u)
		default:
			atomic.AddInt64(&rep.Shed, 1)
		}
		if cfg.Arrivals != nil {
			sched += cfg.Arrivals.Gap(sched)
			if d := sched - wall.Since(start); d > 500*time.Microsecond {
				wall.Sleep(d)
			}
		}
	}
	wg.Wait()
}
