package wsdl

import (
	"context"
	"fmt"

	"wls/internal/attrs"
	"wls/internal/rmi"
	"wls/internal/wire"
)

// convSpace is the store space holding durable conversation state.
const convSpace = "ws.conversations"

// StartConversation initiates a one-on-one conversation with a service at
// serverAddr. callbacks supplies this client-side object's handlers for
// the operations the server may initiate — they belong to THIS
// conversation object only (Fig 4 isolation).
func (p *Port) StartConversation(ctx context.Context, serverAddr, service string, callbacks map[string]Handler) (*Conversation, error) {
	id := p.newConvID()
	c := &Conversation{
		ID:        id,
		Service:   service,
		Peer:      serverAddr,
		role:      RoleClient,
		port:      p,
		state:     make(map[string]string),
		callbacks: callbacks,
	}
	p.mu.Lock()
	p.convs[id] = c
	p.mu.Unlock()

	e := wire.NewEncoder(64)
	e.String(service)
	e.String(id)
	if _, err := p.invoke(ctx, serverAddr, "start", e.Bytes()); err != nil {
		p.mu.Lock()
		delete(p.convs, id)
		p.mu.Unlock()
		return nil, err
	}
	return c, nil
}

// invoke performs one wls.ws RPC against a peer port.
func (p *Port) invoke(ctx context.Context, addr, method string, args []byte) ([]byte, error) {
	stub := rmi.NewStub(ServiceRMIName, p.node, rmi.StaticView(addr))
	res, err := stub.Invoke(ctx, method, args)
	if err != nil {
		return nil, err
	}
	return res.Body, nil
}

// Call performs a request-response operation within the conversation.
func (c *Conversation) Call(ctx context.Context, op string, payload []byte) ([]byte, error) {
	return c.send(ctx, op, payload, true)
}

// Send performs a one-way (client→server) or notification (server→client)
// operation within the conversation.
func (c *Conversation) Send(ctx context.Context, op string, payload []byte) error {
	_, err := c.send(ctx, op, payload, false)
	return err
}

// Solicit performs a solicit-response callback (server→client) and returns
// the correlated reply.
//
//wls:nolint unreached -- library-only: §4, TestCallbacksReachTheClientByLocationEmbedding
func (c *Conversation) Solicit(ctx context.Context, op string, payload []byte) ([]byte, error) {
	if c.role != RoleServer {
		return nil, fmt.Errorf("wsdl: Solicit is a server-side operation")
	}
	return c.send(ctx, op, payload, true)
}

func (c *Conversation) send(ctx context.Context, op string, payload []byte, wantReply bool) ([]byte, error) {
	// The server may only initiate operations named as callbacks in its
	// own WSDL ("All methods invoked as part of the conversation must be
	// named in the server's WSDL").
	method := "call"
	if c.role == RoleServer {
		if _, ok := c.def.Callbacks[op]; !ok {
			return nil, fmt.Errorf("%w: callback %q not declared by %s", ErrNoSuchOperation, op, c.Service)
		}
		method = "callback"
	}
	if !wantReply {
		if c.role == RoleClient {
			method = "oneway"
		}
	}
	e := wire.NewEncoder(64 + len(payload))
	e.String(c.ID)
	e.String(op)
	e.Bytes2(payload)
	return c.port.invoke(ctx, c.peerAddr(), method, e.Bytes())
}

// peerAddr resolves where the other side of the conversation lives: the
// server side extracts the client's location from the conversation ID (the
// §4 location-embedding technique); the client side remembers the server.
func (c *Conversation) peerAddr() string {
	if c.role == RoleServer {
		if loc, ok := LocationOf(c.ID); ok {
			return loc
		}
	}
	return c.Peer
}

// Finish ends the conversation on both sides.
//
//wls:nolint unreached -- library-only: §4, TestFinishTearsDownBothSides
func (c *Conversation) Finish(ctx context.Context) error {
	e := wire.NewEncoder(32)
	e.String(c.ID)
	_, err := c.port.invoke(ctx, c.peerAddr(), "finish", e.Bytes())
	c.port.dropConv(c.ID)
	return err
}

func (p *Port) dropConv(id string) {
	p.mu.Lock()
	delete(p.convs, id)
	p.mu.Unlock()
	if p.st != nil {
		_ = p.st.Delete(convSpace, id)
	}
}

// persist writes a durable conversation's state after an operation.
func (p *Port) persist(c *Conversation) {
	if p.st == nil || c.def == nil || !c.def.Durable {
		return
	}
	c.mu.Lock()
	e := wire.NewEncoder(128)
	e.String(c.Service)
	attrs.AppendMap(e, c.state)
	body := e.Bytes()
	c.mu.Unlock()
	_ = p.st.Put(convSpace, c.ID, body)
}

// Recover reloads durable conversations after a restart. In-memory
// conversations (and their queued messages) are gone — the intended unit
// of failure.
func (p *Port) Recover() int {
	if p.st == nil {
		return 0
	}
	var saved []*Conversation
	p.st.Scan(convSpace, "", func(id, raw string) bool {
		d := wire.NewDecoder([]byte(raw))
		service := d.String()
		list, err := attrs.Read(d, false)
		if err != nil {
			return true
		}
		saved = append(saved, &Conversation{ID: id, Service: service, role: RoleServer, port: p, state: attrs.Map(list)})
		return true
	})
	n := 0
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range saved {
		if c.def = p.services[c.Service]; c.def != nil {
			p.convs[c.ID] = c
			n++
		}
	}
	return n
}

// rmiService is the wire surface between ports.
func (p *Port) rmiService() *rmi.Service {
	findConv := func(id string) (*Conversation, error) {
		p.mu.Lock()
		defer p.mu.Unlock()
		c, ok := p.convs[id]
		if !ok {
			return nil, &rmi.AppError{Msg: ErrNoConversation.Error() + ": " + id}
		}
		return c, nil
	}
	return &rmi.Service{
		Name: ServiceRMIName,
		Methods: map[string]rmi.MethodSpec{
			// start: create the server side of a conversation.
			"start": {Handler: func(ctx context.Context, call *rmi.Call) ([]byte, error) {
				d := wire.NewDecoder(call.Args)
				service, id := d.String(), d.String()
				if err := d.Err(); err != nil {
					return nil, err
				}
				p.mu.Lock()
				def, ok := p.services[service]
				p.mu.Unlock()
				if !ok {
					return nil, &rmi.AppError{Msg: "wsdl: no such service: " + service}
				}
				c := &Conversation{
					ID: id, Service: service, role: RoleServer, port: p, def: def,
					state: make(map[string]string),
				}
				p.mu.Lock()
				p.convs[id] = c
				p.mu.Unlock()
				if def.OnStart != nil {
					def.OnStart(c)
				}
				p.persist(c)
				p.started.Inc()
				return nil, nil
			}},
			// call: client-invoked request-response operation.
			"call": {Handler: func(ctx context.Context, call *rmi.Call) ([]byte, error) {
				return p.dispatchOperation(call.Args, true)
			}},
			// oneway: client-invoked one-way operation.
			"oneway": {Handler: func(ctx context.Context, call *rmi.Call) ([]byte, error) {
				return p.dispatchOperation(call.Args, false)
			}},
			// callback: server-invoked operation on the client side,
			// dispatched to the conversation OBJECT's own handlers.
			"callback": {Handler: func(ctx context.Context, call *rmi.Call) ([]byte, error) {
				d := wire.NewDecoder(call.Args)
				id, op := d.String(), d.String()
				payload := d.Bytes()
				if err := d.Err(); err != nil {
					return nil, err
				}
				c, err := findConv(id)
				if err != nil {
					return nil, err
				}
				c.mu.Lock()
				h, ok := c.callbacks[op]
				c.mu.Unlock()
				if !ok {
					return nil, &rmi.AppError{Msg: fmt.Sprintf("wsdl: conversation %s has no callback %q", id, op)}
				}
				p.callbacks.Inc()
				out, err := h(c, payload)
				if err != nil {
					return nil, &rmi.AppError{Msg: err.Error()}
				}
				return out, nil
			}},
			// import: receive a migrating conversation (§4 migration).
			"import": {Handler: func(ctx context.Context, call *rmi.Call) ([]byte, error) {
				if _, err := p.Import(call.Args); err != nil {
					return nil, &rmi.AppError{Msg: err.Error()}
				}
				return nil, nil
			}},
			// finish: tear down the peer's side.
			"finish": {Handler: func(ctx context.Context, call *rmi.Call) ([]byte, error) {
				d := wire.NewDecoder(call.Args)
				id := d.String()
				if err := d.Err(); err != nil {
					return nil, err
				}
				p.dropConv(id)
				return nil, nil
			}},
		},
	}
}

// dispatchOperation runs a client-invoked operation on the server side.
func (p *Port) dispatchOperation(args []byte, wantReply bool) ([]byte, error) {
	d := wire.NewDecoder(args)
	id, op := d.String(), d.String()
	payload := d.Bytes()
	if err := d.Err(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	c, ok := p.convs[id]
	p.mu.Unlock()
	if !ok {
		return nil, &rmi.AppError{Msg: ErrNoConversation.Error() + ": " + id}
	}
	operation, ok := c.def.Operations[op]
	if !ok {
		return nil, &rmi.AppError{Msg: ErrNoSuchOperation.Error() + ": " + op}
	}
	p.operations.Inc()
	if !wantReply && operation.Kind == OneWay {
		// One-way with in-memory queueing semantics: handler runs inline
		// here (the queue is the transport); a nil handler parks the
		// payload in the conversation's inbox.
		if operation.Handler == nil {
			c.mu.Lock()
			c.inbox = append(c.inbox, queued{op: op, payload: payload})
			c.mu.Unlock()
			return nil, nil
		}
	}
	out, err := operation.Handler(c, payload)
	if err != nil {
		return nil, &rmi.AppError{Msg: err.Error()}
	}
	p.persist(c)
	return out, nil
}

// Inbox drains queued one-way payloads for an operation (server side).
//
//wls:nolint unreached -- library-only: §4, TestOneWayQueuesInMemoryWithConversation
func (c *Conversation) Inbox(op string) [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out [][]byte
	rest := c.inbox[:0]
	for _, q := range c.inbox {
		if q.op == op {
			out = append(out, q.payload)
		} else {
			rest = append(rest, q)
		}
	}
	c.inbox = rest
	return out
}
