package cluster

import (
	"sync"
	"time"

	"wls/internal/vclock"
)

// NodeManager implements the §3.4 pattern of placing a server "under the
// control of a WebLogic node manager process": it watches membership events
// and invokes a restart hook for failed servers after a configurable delay.
//
// The restart hook is supplied by the embedding environment — in the
// simulator it re-creates the server on the fabric; in a real deployment it
// would exec a process.
type NodeManager struct {
	clock        vclock.Clock
	restartDelay time.Duration
	restart      func(MemberInfo)

	mu       sync.Mutex
	pending  map[string]vclock.Timer
	restarts map[string]int
	stopped  bool
}

// NewNodeManager returns a manager that calls restart(info) restartDelay
// after a watched member fails.
//
//wls:nolint unreached -- library-only: §3.4, TestNodeManagerRestartsFailedServer
func NewNodeManager(clock vclock.Clock, restartDelay time.Duration, restart func(MemberInfo)) *NodeManager {
	return &NodeManager{
		clock:        clock,
		restartDelay: restartDelay,
		restart:      restart,
		pending:      make(map[string]vclock.Timer),
		restarts:     make(map[string]int),
	}
}

// Watch subscribes the manager to membership events observed by m.
// Typically m is the admin server's member, which sees the whole cluster.
func (nm *NodeManager) Watch(m *Member) {
	m.OnEvent(func(ev Event) {
		switch ev.Kind {
		case EventFailed:
			nm.onFailed(ev.Member)
		case EventJoined:
			nm.onJoined(ev.Member)
		}
	})
}

func (nm *NodeManager) onFailed(info MemberInfo) {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	if nm.stopped {
		return
	}
	if _, ok := nm.pending[info.Name]; ok {
		return // restart already scheduled
	}
	nm.pending[info.Name] = nm.clock.AfterFunc(nm.restartDelay, func() {
		nm.mu.Lock()
		delete(nm.pending, info.Name)
		stopped := nm.stopped
		if !stopped {
			nm.restarts[info.Name]++
		}
		nm.mu.Unlock()
		if !stopped {
			nm.restart(info)
		}
	})
}

// onJoined cancels a pending restart when the server comes back on its own
// (e.g. a transient freeze rather than a crash).
func (nm *NodeManager) onJoined(info MemberInfo) {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	if t, ok := nm.pending[info.Name]; ok {
		t.Stop()
		delete(nm.pending, info.Name)
	}
}

// Restarts reports how many times the named server has been restarted.
func (nm *NodeManager) Restarts(name string) int {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	return nm.restarts[name]
}

// Stop cancels all pending restarts.
func (nm *NodeManager) Stop() {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	nm.stopped = true
	for name, t := range nm.pending {
		t.Stop()
		delete(nm.pending, name)
	}
}
