// Package wsdl implements the server-to-server programming model of §4:
// WSDL's four operation types unifying synchronous RPC with asynchronous
// messaging, one-on-one conversations with explicit callbacks, subordinate
// conversations with isolated interfaces (Figure 4), and both durable and
// in-memory conversational state.
//
// Key behaviours taken from the paper:
//
//   - "A server offers a WSDL service and a client initiates a one-on-one
//     conversation with the server. All methods invoked as part of the
//     conversation must be named in the server's WSDL. In particular,
//     within the conversation, the server may asynchronously contact the
//     client using one of the specified callbacks, but not by invoking a
//     new service on the client."
//   - Conversation IDs embed their creator's location ("location embedding
//     will be possible only at the point the conversation ID is created,
//     which will generally occur on the client"), which is how callbacks
//     find the client side of a conversation.
//   - Subordinate conversations get "a separate but dependent object", so
//     "callbacks from C" are never "accessible as call-ins from A", and
//     multiple subordinates of the same service type are unambiguous.
//   - In-memory conversations queue their in/outbound asynchronous
//     messages in memory with the conversation — "a nice unit of failure
//     in that the conversation and its messages are lost together";
//     durable conversations persist state to the middle-tier store.
package wsdl

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"wls/internal/metrics"
	"wls/internal/rmi"
	"wls/internal/tuple"
)

// OpKind is one of WSDL's four operation types.
type OpKind int

// The four WSDL operation types (§4).
const (
	// OneWay: receive a message.
	OneWay OpKind = iota
	// RequestResponse: receive a message and send a correlated message.
	RequestResponse
	// SolicitResponse: send a message and receive a correlated message
	// (a callback with a result).
	SolicitResponse
	// Notification: send a message (a fire-and-forget callback).
	Notification
)

func (k OpKind) String() string {
	switch k {
	case OneWay:
		return "one-way"
	case RequestResponse:
		return "request-response"
	case SolicitResponse:
		return "solicit-response"
	case Notification:
		return "notification"
	default:
		return "unknown"
	}
}

// Errors.
var (
	// ErrNoSuchOperation is returned for methods not named in the WSDL.
	ErrNoSuchOperation = errors.New("wsdl: operation not in service definition")
	// ErrNoConversation means the conversation is unknown at the target
	// (e.g. an in-memory conversation lost to a crash).
	ErrNoConversation = errors.New("wsdl: no such conversation")
)

// Handler processes an inbound operation or callback within a
// conversation. For RequestResponse/SolicitResponse the returned bytes are
// the correlated reply.
type Handler func(c *Conversation, payload []byte) ([]byte, error)

// Operation declares one operation of a service.
type Operation struct {
	Kind    OpKind
	Handler Handler
}

// ServiceDef is a WSDL service: the operations clients may invoke and the
// callbacks the service may invoke on its clients.
type ServiceDef struct {
	// Name is the service name.
	Name string
	// Operations are the client-invocable methods (OneWay or
	// RequestResponse).
	Operations map[string]Operation
	// Callbacks names the methods this service may call back on the
	// client (SolicitResponse or Notification). Callbacks not declared
	// here are rejected at Send time — the interface is centralized in
	// the server's WSDL.
	Callbacks map[string]OpKind
	// Durable persists conversation state to the port's store after
	// every operation; in-memory conversations are lost with the server.
	Durable bool
	// OnStart initializes a new server-side conversation.
	//
	//wls:nolint unreached -- library-only: §4, TestOneWayQueuesInMemoryWithConversation
	OnStart func(c *Conversation)
}

// ServiceRMIName is the RMI service carrying Web Services traffic.
const ServiceRMIName = "wls.ws"

// Port is one process's Web Services runtime: it hosts services (server
// role) and client-side conversation endpoints (client role) on one node.
type Port struct {
	node rmi.Node
	st   *tuple.Store // nil = in-memory conversations only

	started, callbacks, operations *metrics.Counter

	mu       sync.Mutex
	services map[string]*ServiceDef
	convs    map[string]*Conversation
	seq      uint64
}

// NewPort creates a Web Services runtime on a server's RMI registry. st
// may be nil when only in-memory conversations are needed.
func NewPort(registry *rmi.Registry, st *tuple.Store) *Port {
	reg := registry.Metrics()
	p := &Port{
		node:       registry.Node(),
		st:         st,
		started:    reg.Counter("ws.conversations_started"),
		callbacks:  reg.Counter("ws.callbacks"),
		operations: reg.Counter("ws.operations"),
		services:   make(map[string]*ServiceDef),
		convs:      make(map[string]*Conversation),
	}
	registry.Register(p.rmiService())
	return p
}

// Offer deploys a service on this port.
func (p *Port) Offer(def *ServiceDef) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.services[def.Name] = def
}

// Addr returns the port's node address.
func (p *Port) Addr() string { return p.node.Addr() }

// Role distinguishes the two sides of a conversation.
type Role int

// Conversation roles.
const (
	RoleClient Role = iota
	RoleServer
)

// Conversation is one side of a one-on-one conversation. Both sides
// maintain state on its behalf (§4).
type Conversation struct {
	// ID is globally unique and embeds the client's address.
	ID string
	// Service names the WSDL service this conversation belongs to.
	Service string
	// Peer is the other side's address.
	Peer string

	role Role
	port *Port
	def  *ServiceDef // server side only

	mu    sync.Mutex
	state map[string]string
	// callbacks are the client-side handlers for server-initiated
	// operations; they are per-conversation-object, which is exactly the
	// Fig 4 isolation property.
	callbacks map[string]Handler
	// inbox holds undelivered one-way payloads for in-memory queueing.
	inbox []queued
}

type queued struct {
	op      string
	payload []byte
}

// Get reads conversation state.
func (c *Conversation) Get(key string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state[key]
}

// Set writes conversation state (persisted after the current operation for
// durable conversations).
func (c *Conversation) Set(key, value string) {
	c.mu.Lock()
	c.state[key] = value
	c.mu.Unlock()
}

// convID creation: "<creator-addr>|conv|<n>" — the address prefix is the
// location embedding.
func (p *Port) newConvID() string {
	p.mu.Lock()
	p.seq++
	n := p.seq
	p.mu.Unlock()
	return fmt.Sprintf("%s|conv|%d", p.node.Addr(), n)
}

// LocationOf extracts the embedded creator location from a conversation ID.
func LocationOf(convID string) (string, bool) {
	i := strings.Index(convID, "|conv|")
	if i < 0 {
		return "", false
	}
	return convID[:i], true
}
