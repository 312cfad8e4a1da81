package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"

	"wls/internal/kv"
	"wls/internal/rmi"
	"wls/internal/tx"
	"wls/internal/wire"
)

// spanKind names one seam of the system under test. Spans are recorded by
// benchmark-owned decorators around the public API of each layer; nothing
// inside the program is instrumented.
type spanKind uint8

const (
	spHTTP           spanKind = iota // the net/http handler, whole
	spRoute                          // webtier.ProxyPlugin.Route
	spProxyCall                      // proxy-side rmi.Node.Call
	spInbound                        // server-side inbound handler, frame from the proxy
	spReplicaInbound                 // server-side inbound handler, frame from a peer server
	spServlet                        // the servlet handler closure
	spReplicate                      // server-side outbound rmi.Node.Call (session replication)
	spTxCommit                       // tx.Tx.Commit
	spResPrepare                     // tx.Resource.Prepare on a store.Session
	spResCommit                      // tx.Resource.Commit on a store.Session
	spTxLog                          // tx.Log.Append (with its flush)
	spStoreRead                      // store.Store.Get in /browse
	spStoreStage                     // store.Store.Session + staging the writes in /checkout
	spKVApply                        // kv.Store.Apply/Put/Delete under store.Open
	spFSSync                         // kv.File.Sync (with the flush floor)
	spFSWrite                        // kv.File.Write
	numSpanKinds
)

// spanMeta gives each kind its name in the JSONL dump and the seam that
// encloses it; parents are fixed because the seams are.
var spanMeta = [numSpanKinds]struct{ name, parent string }{
	spHTTP:           {"http.handle", ""},
	spRoute:          {"webtier.route", "http.handle"},
	spProxyCall:      {"proxy.call", "webtier.route"},
	spInbound:        {"server.inbound", "proxy.call"},
	spReplicaInbound: {"replica.inbound", "session.replicate"},
	spServlet:        {"servlet.handler", "server.inbound"},
	spReplicate:      {"session.replicate", "server.inbound"},
	spTxCommit:       {"tx.commit", "servlet.handler"},
	spResPrepare:     {"store.prepare", "tx.commit"},
	spResCommit:      {"store.commit", "tx.commit"},
	spTxLog:          {"tx.log", "tx.commit"},
	spStoreRead:      {"store.read", "servlet.handler"},
	spStoreStage:     {"store.stage", "servlet.handler"},
	spKVApply:        {"kv.apply", "store.prepare|store.commit"},
	spFSSync:         {"fs.sync", "kv.apply"},
	spFSWrite:        {"fs.write", "kv.apply"},
}

// span is one recorded interval. req is 0 at seams whose public API carries
// neither a context nor the request body (inbound handler, kv, fs, tx log);
// those are attributed by aggregate. n is a seam-specific count: bytes for
// fs.write, ops for kv.apply.
type span struct {
	kind  spanKind
	n     int32
	req   uint64
	start int64
	dur   int64
}

// sampleCap bounds the requests and frame sizes kept for the direct-call
// probes; they are replayed cyclically.
const sampleCap = 512

// sampledReq is one routed request kept for the servlet direct-call probe.
type sampledReq struct {
	path, cookie string
	body         []byte
}

// tracer records spans into a pre-sized slice while on. A nil *tracer is
// the untraced configuration: begin returns 0 and end does nothing, so the
// seams cost one nil check.
type tracer struct {
	on      atomic.Bool
	next    atomic.Int64
	dropped atomic.Int64
	spans   []span

	mu     sync.Mutex // guards the probe samples
	frames []int
	reqs   []sampledReq
}

func newTracer(capacity int) *tracer {
	return &tracer{spans: make([]span, capacity)}
}

// begin returns the span start, or 0 when not recording.
func (t *tracer) begin() int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	return now()
}

// end records a span begun at start; a zero start (tracing was off at
// begin) records nothing.
func (t *tracer) end(kind spanKind, req uint64, start int64, n int) {
	if start == 0 {
		return
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{kind: kind, n: int32(n), req: req, start: start, dur: now() - start}
}

// recorded returns the spans captured so far.
func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

func (t *tracer) sampleFrame(size int) {
	t.mu.Lock()
	if len(t.frames) < sampleCap {
		t.frames = append(t.frames, size)
	}
	t.mu.Unlock()
}

func (t *tracer) sampleReq(path, cookie string, body []byte) {
	t.mu.Lock()
	if len(t.reqs) < sampleCap {
		t.reqs = append(t.reqs, sampledReq{path, cookie, append([]byte(nil), body...)})
	}
	t.mu.Unlock()
}

// writeJSONL dumps every span as {name, parent, req, start_ns, dur_ns, n}.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.recorded() {
		m := spanMeta[s.kind]
		err = enc.Encode(struct {
			Name   string `json:"name"`
			Parent string `json:"parent"`
			Req    uint64 `json:"req"`
			Start  int64  `json:"start_ns"`
			Dur    int64  `json:"dur_ns"`
			N      int32  `json:"n"`
		}{m.name, m.parent, s.req, s.start, s.dur, s.n})
		if err != nil {
			break
		}
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// reqIDKey carries the request id on the proxy side of the RMI hop.
type reqIDKey struct{}

func reqIDFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(reqIDKey{}).(uint64)
	return id
}

// tracedNode decorates an rmi.Node: Call on the way out, SetHandler on the
// way in.
type tracedNode struct {
	rmi.Node
	t         *tracer
	callKind  spanKind
	proxyAddr string
}

// node wraps n for tracing; callKind names its outbound calls and frames
// arriving from proxyAddr are told apart from peer-server frames.
func (t *tracer) node(n rmi.Node, callKind spanKind, proxyAddr string) rmi.Node {
	if t == nil {
		return n
	}
	return &tracedNode{Node: n, t: t, callKind: callKind, proxyAddr: proxyAddr}
}

func (n *tracedNode) Call(ctx context.Context, to string, f wire.Frame) (wire.Frame, error) {
	start := n.t.begin()
	resp, err := n.Node.Call(ctx, to, f)
	if start != 0 {
		n.t.end(n.callKind, reqIDFrom(ctx), start, 0)
		if n.callKind == spProxyCall {
			n.t.sampleFrame(len(f.Body))
			n.t.sampleFrame(len(resp.Body))
		}
	}
	return resp, err
}

func (n *tracedNode) SetHandler(h wire.Handler) {
	n.Node.SetHandler(func(from string, f wire.Frame) *wire.Frame {
		start := n.t.begin()
		resp := h(from, f)
		kind := spReplicaInbound
		if from == n.proxyAddr {
			kind = spInbound
		}
		n.t.end(kind, 0, start, 0)
		return resp
	})
}

// tracedResource decorates a store.Session enlisted in a transaction.
type tracedResource struct {
	tx.Resource
	t   *tracer
	req uint64
}

func (t *tracer) resource(r tx.Resource, req uint64) tx.Resource {
	if t == nil {
		return r
	}
	return &tracedResource{Resource: r, t: t, req: req}
}

func (r *tracedResource) Prepare(txID string) error {
	start := r.t.begin()
	err := r.Resource.Prepare(txID)
	r.t.end(spResPrepare, r.req, start, 0)
	return err
}

func (r *tracedResource) Commit(txID string) error {
	start := r.t.begin()
	err := r.Resource.Commit(txID)
	r.t.end(spResCommit, r.req, start, 0)
	return err
}

// tracedKV decorates the kv backend between store.Open and the WAL.
type tracedKV struct {
	kv.Store
	t *tracer
}

func (t *tracer) kvStore(s kv.Store) kv.Store {
	if t == nil {
		return s
	}
	return &tracedKV{Store: s, t: t}
}

func (s *tracedKV) Apply(ops []kv.Op) error {
	start := s.t.begin()
	err := s.Store.Apply(ops)
	s.t.end(spKVApply, 0, start, len(ops))
	return err
}

func (s *tracedKV) Put(key string, value []byte) error {
	start := s.t.begin()
	err := s.Store.Put(key, value)
	s.t.end(spKVApply, 0, start, 1)
	return err
}

func (s *tracedKV) Delete(key string) error {
	start := s.t.begin()
	err := s.Store.Delete(key)
	s.t.end(spKVApply, 0, start, 1)
	return err
}

func (t *tracer) setOn(v bool) {
	if t != nil {
		t.on.Store(v)
	}
}
