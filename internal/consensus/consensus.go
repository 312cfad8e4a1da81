// Package consensus implements the "kind of distributed consensus protocol"
// that §3.4 prescribes for the baseline highly-available services: a
// majority-quorum leader election with monotonically increasing terms that
// double as fencing tokens.
//
// The paper's two-level architecture puts this at the bottom: "continuous
// singleton services are directly implemented using either an HA framework
// or some kind of distributed consensus protocol ... these baseline
// services are used to bootstrap a highly-available lease manager". The
// lease manager (internal/lease) runs wherever this elector says the leader
// is, and every grant it issues embeds the term, so a deposed leader's
// messages are recognizably stale — the fencing half of split-brain
// avoidance.
//
// The protocol is a Raft-style election (terms, single vote per term,
// randomized timeouts, leader heartbeats) without a replicated log, which
// the singleton framework does not need: all durable state lives in the
// lease table and the services' own stores.
package consensus

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"wls/internal/rmi"
	"wls/internal/vclock"
	"wls/internal/wire"
)

// ServiceName is the RMI service the electors expose to each other.
const ServiceName = "wls.consensus"

// Config tunes election behaviour.
type Config struct {
	// Self is this management server's name.
	Self string
	// Peers maps every management server name (including self) to its
	// transport address. The quorum is a strict majority of this static
	// set — the handful of servers §3.4 says the heavyweight solution
	// "should be used for only".
	Peers map[string]string
	// HeartbeatInterval is the leader's heartbeat cadence (default 150ms).
	HeartbeatInterval time.Duration
	// ElectionTimeout is the base follower patience; each elector adds up
	// to 100% jitter (default 500ms).
	ElectionTimeout time.Duration
	// Seed randomizes timeouts deterministically.
	Seed int64
}

func (c *Config) fillDefaults() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 150 * time.Millisecond
	}
	if c.ElectionTimeout <= 0 {
		c.ElectionTimeout = 500 * time.Millisecond
	}
}

// Role is an elector's current role.
type Role int

// Roles.
const (
	Follower Role = iota
	Candidate
	Leader
)

func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return "unknown"
	}
}

// Elector is one management server's participation in leader election.
type Elector struct {
	cfg   Config
	clock vclock.Clock
	node  rmi.Node
	rng   *rand.Rand

	mu          sync.Mutex
	role        Role
	term        uint64
	votedFor    string
	leader      string
	leaderTerm  uint64
	stopped     bool
	electionT   vclock.Timer
	heartbeatT  vclock.Timer
	listeners   []func(leader string, term uint64)
	sawLeaderAt time.Time
}

// NewElector creates an elector and registers its RMI service on registry.
//
//wls:nolint unreached -- item 13: §3.4's two-level HA elects the lease manager through it, or it goes
func NewElector(cfg Config, clock vclock.Clock, registry *rmi.Registry) *Elector {
	cfg.fillDefaults()
	e := &Elector{
		cfg:   cfg,
		clock: clock,
		node:  registry.Node(),
		rng:   rand.New(rand.NewSource(cfg.Seed + int64(len(cfg.Self)))),
	}
	registry.Register(e.service())
	return e
}

// Start begins following; an election fires if no leader heartbeats.
func (e *Elector) Start() {
	e.mu.Lock()
	e.stopped = false
	e.mu.Unlock()
	e.resetElectionTimer()
}

// Stop halts all timers (the server is shutting down).
func (e *Elector) Stop() {
	e.mu.Lock()
	e.stopped = true
	et, ht := e.electionT, e.heartbeatT
	e.electionT, e.heartbeatT = nil, nil
	if e.role == Leader {
		e.role = Follower
	}
	e.mu.Unlock()
	if et != nil {
		et.Stop()
	}
	if ht != nil {
		ht.Stop()
	}
}

// Leader returns the currently known leader and its term.
func (e *Elector) Leader() (name string, term uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.leader, e.leaderTerm
}

// IsLeader reports whether this elector currently holds leadership.
func (e *Elector) IsLeader() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.role == Leader
}

// Term returns the current term (the fencing token).
func (e *Elector) Term() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.term
}

// Role returns the current role.
func (e *Elector) Role() Role {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.role
}

// OnLeadershipChange registers a callback fired whenever the known leader
// changes. Callbacks run on timer/RPC goroutines and must not block.
func (e *Elector) OnLeadershipChange(fn func(leader string, term uint64)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.listeners = append(e.listeners, fn)
}

func (e *Elector) notify(leader string, term uint64) {
	e.mu.Lock()
	ls := append([]func(string, uint64){}, e.listeners...)
	e.mu.Unlock()
	for _, fn := range ls {
		fn(leader, term)
	}
}

// quorum returns the majority threshold.
func (e *Elector) quorum() int { return len(e.cfg.Peers)/2 + 1 }

func (e *Elector) resetElectionTimer() {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	if e.electionT != nil {
		e.electionT.Stop()
	}
	jitter := time.Duration(e.rng.Int63n(int64(e.cfg.ElectionTimeout)))
	e.electionT = e.clock.AfterFunc(e.cfg.ElectionTimeout+jitter, e.campaign)
	e.mu.Unlock()
}

// campaign runs one election round.
func (e *Elector) campaign() {
	e.mu.Lock()
	if e.stopped || e.role == Leader {
		e.mu.Unlock()
		return
	}
	e.role = Candidate
	e.term++
	term := e.term
	e.votedFor = e.cfg.Self
	self := e.cfg.Self
	peers := make(map[string]string, len(e.cfg.Peers))
	for n, a := range e.cfg.Peers {
		peers[n] = a
	}
	e.mu.Unlock()

	votes := 1 // self
	for name, addr := range peers {
		if name == self {
			continue
		}
		granted, peerTerm := e.sendRequestVote(addr, term)
		if peerTerm > term {
			e.stepDown(peerTerm)
			e.resetElectionTimer()
			return
		}
		if granted {
			votes++
		}
	}

	e.mu.Lock()
	if e.stopped || e.term != term || e.role != Candidate {
		e.mu.Unlock()
		e.resetElectionTimer()
		return
	}
	if votes >= e.quorum() {
		e.role = Leader
		e.leader = self
		e.leaderTerm = term
		e.mu.Unlock()
		e.notify(self, term)
		e.heartbeat()
		return
	}
	e.role = Follower
	e.mu.Unlock()
	e.resetElectionTimer()
}

// heartbeat broadcasts leadership and re-schedules itself.
func (e *Elector) heartbeat() {
	e.mu.Lock()
	if e.stopped || e.role != Leader {
		e.mu.Unlock()
		return
	}
	term := e.term
	self := e.cfg.Self
	peers := make(map[string]string, len(e.cfg.Peers))
	for n, a := range e.cfg.Peers {
		peers[n] = a
	}
	e.mu.Unlock()

	// A leader that cannot reach a quorum of peers must step down: it may
	// be the isolated side of a partition (split-brain prevention).
	reached := 1
	for name, addr := range peers {
		if name == self {
			continue
		}
		ok, peerTerm := e.sendHeartbeat(addr, term)
		if peerTerm > term {
			e.stepDown(peerTerm)
			e.resetElectionTimer()
			return
		}
		if ok {
			reached++
		}
	}
	if reached < e.quorum() {
		e.stepDown(term)
		e.resetElectionTimer()
		return
	}

	e.mu.Lock()
	if !e.stopped && e.role == Leader {
		e.heartbeatT = e.clock.AfterFunc(e.cfg.HeartbeatInterval, e.heartbeat)
	}
	e.mu.Unlock()
}

// stepDown reverts to follower at the given (possibly newer) term.
func (e *Elector) stepDown(term uint64) {
	e.mu.Lock()
	wasLeader := e.role == Leader
	if term > e.term {
		e.term = term
		e.votedFor = ""
	}
	e.role = Follower
	if wasLeader && e.leader == e.cfg.Self {
		e.leader = ""
	}
	e.mu.Unlock()
	if wasLeader {
		e.notify("", term)
	}
}

// --- RPC plumbing ----------------------------------------------------------

func (e *Elector) sendRequestVote(addr string, term uint64) (granted bool, peerTerm uint64) {
	enc := wire.NewEncoder(32)
	enc.Uint64(term)
	enc.String(e.cfg.Self)
	res, err := e.invoke(addr, "requestVote", enc.Bytes())
	if err != nil {
		return false, 0
	}
	d := wire.NewDecoder(res)
	return d.Bool(), d.Uint64()
}

func (e *Elector) sendHeartbeat(addr string, term uint64) (ok bool, peerTerm uint64) {
	enc := wire.NewEncoder(32)
	enc.Uint64(term)
	enc.String(e.cfg.Self)
	res, err := e.invoke(addr, "heartbeat", enc.Bytes())
	if err != nil {
		return false, 0
	}
	d := wire.NewDecoder(res)
	return d.Bool(), d.Uint64()
}

func (e *Elector) invoke(addr, method string, args []byte) ([]byte, error) {
	stub := rmi.NewStub(ServiceName, e.node, rmi.StaticView(addr))
	ctx, cancel := context.WithTimeout(context.Background(), e.cfg.HeartbeatInterval)
	defer cancel()
	res, err := stub.Invoke(ctx, method, args)
	if err != nil {
		return nil, err
	}
	return res.Body, nil
}

// service handles inbound vote requests and heartbeats.
func (e *Elector) service() *rmi.Service {
	return &rmi.Service{
		Name:   ServiceName,
		System: true,
		Methods: map[string]rmi.MethodSpec{
			"requestVote": {Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
				d := wire.NewDecoder(c.Args)
				term, candidate := d.Uint64(), d.String()
				if err := d.Err(); err != nil {
					return nil, err
				}
				granted := e.handleRequestVote(term, candidate)
				out := wire.NewEncoder(16)
				out.Bool(granted)
				out.Uint64(e.Term())
				return out.Bytes(), nil
			}},
			"heartbeat": {Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
				d := wire.NewDecoder(c.Args)
				term, leader := d.Uint64(), d.String()
				if err := d.Err(); err != nil {
					return nil, err
				}
				ok := e.handleHeartbeat(term, leader)
				out := wire.NewEncoder(16)
				out.Bool(ok)
				out.Uint64(e.Term())
				return out.Bytes(), nil
			}},
		},
	}
}

func (e *Elector) handleRequestVote(term uint64, candidate string) bool {
	e.mu.Lock()
	// Leader stickiness: refuse to vote while a live leader's heartbeats
	// are fresh (prevents disruptive elections from a flapping node).
	if e.leader != "" && e.leader != candidate &&
		e.clock.Since(e.sawLeaderAt) < e.cfg.ElectionTimeout {
		e.mu.Unlock()
		return false
	}
	if term < e.term {
		e.mu.Unlock()
		return false
	}
	if term > e.term {
		e.term = term
		e.votedFor = ""
		if e.role == Leader {
			e.role = Follower
		} else {
			e.role = Follower
		}
	}
	if e.votedFor == "" || e.votedFor == candidate {
		e.votedFor = candidate
		e.mu.Unlock()
		e.resetElectionTimer()
		return true
	}
	e.mu.Unlock()
	return false
}

func (e *Elector) handleHeartbeat(term uint64, leader string) bool {
	e.mu.Lock()
	if term < e.term {
		e.mu.Unlock()
		return false
	}
	changed := e.leader != leader || e.leaderTerm != term
	if term > e.term {
		e.term = term
		e.votedFor = ""
	}
	e.role = Follower
	e.leader = leader
	e.leaderTerm = term
	e.sawLeaderAt = e.clock.Now()
	e.mu.Unlock()
	e.resetElectionTimer()
	if changed {
		e.notify(leader, term)
	}
	return true
}
