package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"wls/internal/rmi"
	"wls/internal/wire"
)

// §3.4: "health monitoring and lifecycle APIs are provided to allow
// detection and restart of failed and ailing servers. Through these APIs,
// a server may be placed under the control of a WebLogic node manager
// process or a platform-specific HA framework."

// HealthState is a subsystem's (or the server's) health.
type HealthState int

// Health states, ordered by severity.
const (
	HealthOK HealthState = iota
	HealthWarn
	HealthCritical
	HealthFailed
)

func (h HealthState) String() string {
	switch h {
	case HealthOK:
		return "ok"
	case HealthWarn:
		return "warn"
	case HealthCritical:
		return "critical"
	case HealthFailed:
		return "failed"
	default:
		return fmt.Sprintf("health(%d)", int(h))
	}
}

// LifecycleState is the server's position in its lifecycle.
type LifecycleState int

// Lifecycle states.
const (
	LifecycleStarting LifecycleState = iota
	LifecycleRunning
	LifecycleSuspended // draining: no new work admitted
	LifecycleShutdown
)

func (l LifecycleState) String() string {
	switch l {
	case LifecycleStarting:
		return "starting"
	case LifecycleRunning:
		return "running"
	case LifecycleSuspended:
		return "suspended"
	case LifecycleShutdown:
		return "shutdown"
	default:
		return fmt.Sprintf("lifecycle(%d)", int(l))
	}
}

// HealthMonitor aggregates per-subsystem health checks and tracks the
// server lifecycle. Node managers and HA frameworks poll it (remotely via
// Service) to decide on restarts.
type HealthMonitor struct {
	mu        sync.Mutex
	checks    map[string]func() HealthState
	lifecycle LifecycleState
}

// NewHealthMonitor returns a monitor in LifecycleStarting.
func NewHealthMonitor() *HealthMonitor {
	return &HealthMonitor{checks: make(map[string]func() HealthState)}
}

// RegisterCheck adds a named subsystem health check.
func (h *HealthMonitor) RegisterCheck(subsystem string, check func() HealthState) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.checks[subsystem] = check
}

// SetLifecycle moves the server through its lifecycle.
func (h *HealthMonitor) SetLifecycle(s LifecycleState) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.lifecycle = s
}

// Lifecycle returns the current lifecycle state.
func (h *HealthMonitor) Lifecycle() LifecycleState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lifecycle
}

// Overall returns the worst subsystem state (a shut-down server reports
// failed).
func (h *HealthMonitor) Overall() HealthState {
	h.mu.Lock()
	checks := make([]func() HealthState, 0, len(h.checks))
	for _, c := range h.checks {
		checks = append(checks, c)
	}
	lc := h.lifecycle
	h.mu.Unlock()
	if lc == LifecycleShutdown {
		return HealthFailed
	}
	worst := HealthOK
	for _, c := range checks {
		if s := c(); s > worst {
			worst = s
		}
	}
	return worst
}

// Report returns per-subsystem states, sorted by subsystem name.
func (h *HealthMonitor) Report() []SubsystemHealth {
	h.mu.Lock()
	names := make([]string, 0, len(h.checks))
	for n := range h.checks {
		names = append(names, n)
	}
	checks := make(map[string]func() HealthState, len(h.checks))
	for n, c := range h.checks {
		checks[n] = c
	}
	h.mu.Unlock()
	sort.Strings(names)
	out := make([]SubsystemHealth, 0, len(names))
	for _, n := range names {
		out = append(out, SubsystemHealth{Subsystem: n, State: checks[n]()})
	}
	return out
}

// SubsystemHealth is one entry of a health report.
type SubsystemHealth struct {
	Subsystem string
	State     HealthState
}

// HealthServiceName is the RMI surface node managers poll.
const HealthServiceName = "wls.health"

// Service exposes the monitor over RMI: "check" answers the overall state
// and lifecycle; this is the health-monitoring query of §3.4's
// grace-period protocol.
func (h *HealthMonitor) Service() *rmi.Service {
	return &rmi.Service{
		Name:   HealthServiceName,
		System: true,
		Methods: map[string]rmi.MethodSpec{
			"check": {Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
				e := wire.NewEncoder(16)
				e.Int(int(h.Overall()))
				e.Int(int(h.Lifecycle()))
				report := h.Report()
				e.Int(len(report))
				for _, r := range report {
					e.String(r.Subsystem)
					e.Int(int(r.State))
				}
				return e.Bytes(), nil
			}},
		},
	}
}

// QueryHealth polls a server's health service remotely.
//
//wls:nolint unreached -- library-only: §3.4, TestHealthQueryOverRMI
func QueryHealth(ctx context.Context, node rmi.Node, addr string) (HealthState, LifecycleState, []SubsystemHealth, error) {
	stub := rmi.NewStub(HealthServiceName, node, rmi.StaticView(addr))
	res, err := stub.Invoke(ctx, "check", nil)
	if err != nil {
		// Unreachable means failed, which is exactly what a node manager
		// concludes.
		return HealthFailed, LifecycleShutdown, nil, err
	}
	d := wire.NewDecoder(res.Body)
	overall := HealthState(d.Int())
	lc := LifecycleState(d.Int())
	n := d.Count(2) // a subsystem is a name and a state
	report := make([]SubsystemHealth, 0, n)
	for i := 0; i < n; i++ {
		report = append(report, SubsystemHealth{Subsystem: d.String(), State: HealthState(d.Int())})
	}
	if err := d.Err(); err != nil {
		return HealthFailed, lc, nil, err
	}
	return overall, lc, report, nil
}
