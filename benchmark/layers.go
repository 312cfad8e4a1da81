package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"time"

	"wls/internal/servlet"
	"wls/internal/transport"
	"wls/internal/wire"
)

// perLayer lists every per-layer metric of a traced run, in report order.
// Times are means per OK request of the traced window unless the name says
// otherwise. README.md says how each is taken and what it should move.
var perLayer = []struct{ name, unit string }{
	{"bench.throughput_rps", "req/s"},
	{"bench.e2e_p50_us", "us"},
	{"bench.e2e_p95_us", "us"},
	{"bench.e2e_p99_us", "us"},
	{"bench.e2e_mean_us", "us"},
	{"gen.client_us", "us"},
	{"gen.ceiling_rps", "req/s"},
	{"gen.prepare_s", "s"},
	{"http.self_us", "us"},
	{"webtier.self_us", "us"},
	{"webtier.failovers_per_kreq", "count"},
	{"transport.hop_us", "us"},
	{"transport.frames_per_req", "count"},
	{"transport.bytes_per_req", "B"},
	{"transport.batch_frames_mean", "count"},
	{"transport.conns", "count"},
	{"wire.codec_ns_per_frame", "ns"},
	{"rmi.dispatch.self_us", "us"},
	{"servlet.serve_direct_us", "us"},
	{"servlet.handler.self_us", "us"},
	{"session.replicate_us", "us"},
	{"session.replicate_calls_per_req", "count"},
	{"session.replica_apply_us", "us"},
	{"session.resident", "count"},
	{"tx.self_us", "us"},
	{"tx.log_us", "us"},
	{"tx.log_appends_per_req", "count"},
	{"store.self_us", "us"},
	{"store.read_us", "us"},
	{"store.read_p99_us", "us"},
	{"kv.self_us", "us"},
	{"kv.applies_per_req", "count"},
	{"kv.ops_per_apply", "count"},
	{"fs.syncs_per_req", "count"},
	{"fs.sync_us", "us"},
	{"fs.write_us", "us"},
	{"fs.writes_per_req", "count"},
	{"fs.write_bytes_per_req", "B"},
	{"proc.cpu_us_per_req", "us"},
	{"proc.gc_pause_us_per_req", "us"},
	{"proc.goroutines", "count"},
	{"bench.unattributed_us", "us"},
	{"bench.trace_overhead_share", "ratio"},
	{"bench.spans_dropped", "count"},
}

// selfRows are the rows that telescope: together with
// bench.unattributed_us they sum to bench.e2e_mean_us.
var selfRows = []string{
	"gen.client_us", "http.self_us", "webtier.self_us", "transport.hop_us",
	"rmi.dispatch.self_us", "session.replicate_us", "servlet.handler.self_us",
	"store.read_us", "tx.self_us", "tx.log_us", "store.self_us", "kv.self_us",
	"fs.sync_us", "fs.write_us",
}

// counters is a snapshot of the cumulative counters the layers keep
// themselves; a window's value is the difference of two snapshots.
type counters struct {
	framesOut, bytesOut       int64
	batchFrames, batchFlushes int64
	failovers                 int64
	conns                     int
}

func (s *sut) counters() counters {
	var c counters
	add := func(tr *transport.Transport) {
		reg := tr.Metrics()
		c.framesOut += reg.Counter("transport.frames.out").Value()
		c.bytesOut += reg.Counter("transport.bytes.out").Value()
		h := reg.Histogram("transport.batch.frames")
		c.batchFrames += h.Sum()
		c.batchFlushes += h.Count()
		c.conns += tr.NumConns()
	}
	add(s.proxyTr)
	for _, srv := range s.servers {
		add(srv.tr)
	}
	c.failovers = s.proxyReg.Counter("webtier.failovers").Value()
	return c
}

func (s *sut) residentSessions() int {
	n := 0
	for _, srv := range s.servers {
		n += srv.web.Sessions().ResidentSessions()
	}
	return n
}

// layerMetrics turns the traced window's spans and counters into the
// per-layer rows. A layer's self time is its spans minus the spans of the
// seams directly below it, so the self rows telescope to the end-to-end
// mean; seams that carry no request id are attributed by aggregate, which
// is exact because a closed loop leaves nothing in flight at either edge
// of the window. A self time that comes out negative means work reached a
// lower seam without passing the one above it; it is clamped to zero and
// the difference surfaces in bench.unattributed_us.
func layerMetrics(t *tracer, seg *segment, before, after counters, m0, m1 runtime.MemStats) map[string]float64 {
	var sum [numSpanKinds]float64 // µs
	var count, n [numSpanKinds]float64
	var reads []int64
	for _, sp := range t.recorded() {
		sum[sp.kind] += float64(sp.dur) / 1e3
		count[sp.kind]++
		n[sp.kind] += float64(sp.n)
		if sp.kind == spStoreRead {
			reads = append(reads, sp.dur)
		}
	}
	ok := float64(seg.ok)
	per := func(v float64) float64 { return v / ok }
	self := func(whole float64, parts ...float64) float64 {
		for _, p := range parts {
			whole -= p
		}
		return math.Max(0, per(whole))
	}
	e2e := seg.meanUS
	m := map[string]float64{
		"bench.e2e_mean_us":       e2e,
		"gen.client_us":           math.Max(0, e2e-per(sum[spHTTP])),
		"http.self_us":            self(sum[spHTTP], sum[spRoute]),
		"webtier.self_us":         self(sum[spRoute], sum[spProxyCall]),
		"transport.hop_us":        self(sum[spProxyCall], sum[spInbound]),
		"rmi.dispatch.self_us":    self(sum[spInbound], sum[spServlet], sum[spReplicate]),
		"servlet.handler.self_us": self(sum[spServlet], sum[spTxCommit], sum[spStoreRead], sum[spStoreStage]),
		"session.replicate_us":    per(sum[spReplicate]),
		"tx.self_us":              self(sum[spTxCommit], sum[spResPrepare], sum[spResCommit], sum[spTxLog]),
		"tx.log_us":               per(sum[spTxLog]),
		"store.self_us":           self(sum[spStoreStage]+sum[spResPrepare]+sum[spResCommit], sum[spKVApply]),
		"store.read_us":           per(sum[spStoreRead]),
		"kv.self_us":              self(sum[spKVApply], sum[spFSSync], sum[spFSWrite]),
		"fs.sync_us":              per(sum[spFSSync]),
		"fs.write_us":             per(sum[spFSWrite]),
	}
	attributed := 0.0
	for _, name := range selfRows {
		attributed += m[name]
	}
	m["bench.unattributed_us"] = e2e - attributed

	// Context rows and counts; none of these is part of the telescoping sum.
	m["session.replica_apply_us"] = per(sum[spReplicaInbound])
	m["session.replicate_calls_per_req"] = per(count[spReplicate])
	m["tx.log_appends_per_req"] = per(count[spTxLog])
	m["kv.applies_per_req"] = per(count[spKVApply])
	if count[spKVApply] > 0 {
		m["kv.ops_per_apply"] = n[spKVApply] / count[spKVApply]
	}
	m["fs.syncs_per_req"] = per(count[spFSSync] + count[spTxLog]) // a tx-log append is one fsync
	m["fs.writes_per_req"] = per(count[spFSWrite])
	m["fs.write_bytes_per_req"] = per(n[spFSWrite])
	if len(reads) > 0 {
		sort.Slice(reads, func(i, j int) bool { return reads[i] < reads[j] })
		m["store.read_p99_us"] = quantileUS(reads, 0.99)
	}
	m["transport.frames_per_req"] = per(float64(after.framesOut - before.framesOut))
	m["transport.bytes_per_req"] = per(float64(after.bytesOut - before.bytesOut))
	if flushes := after.batchFlushes - before.batchFlushes; flushes > 0 {
		m["transport.batch_frames_mean"] = float64(after.batchFrames-before.batchFrames) / float64(flushes)
	}
	m["transport.conns"] = float64(after.conns)
	m["webtier.failovers_per_kreq"] = per(float64(after.failovers-before.failovers)) * 1000
	m["proc.gc_pause_us_per_req"] = per(float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e3)
	m["bench.spans_dropped"] = float64(t.dropped.Load())
	return m
}

// probeCalls is how many direct calls each probe makes, unless its time
// budget runs out first (a durable checkout takes milliseconds).
const probeCalls = 20000

// probes times two layers the interposed spans cannot split from their
// neighbours, by calling them directly with what the traced window saw:
// the wire codec with the recorded frame sizes, and the servlet engine
// with the recorded requests and no RMI hop. The system is idle meanwhile.
func probes(s *sut, t *tracer, out map[string]float64, budget time.Duration) error {
	if len(t.frames) == 0 || len(t.reqs) == 0 {
		return fmt.Errorf("traced window recorded no frames or requests to replay")
	}
	payload := make([]byte, 0, 1024)
	for _, size := range t.frames {
		if size > len(payload) {
			payload = make([]byte, size)
		}
	}
	var buf []byte
	rd := bytes.NewReader(nil)
	fr := wire.NewFrameReader(rd)
	start := now()
	for i := 0; i < probeCalls; i++ {
		f := wire.Frame{Kind: wire.KindRequest, Corr: uint64(i), Body: payload[:t.frames[i%len(t.frames)]]}
		buf = wire.AppendFrame(buf[:0], f)
		rd.Reset(buf)
		got, err := fr.Next()
		if err != nil || len(got.Body) != len(f.Body) {
			return fmt.Errorf("wire probe: frame %d: %d bytes back, err %v", i, len(got.Body), err)
		}
	}
	out["wire.codec_ns_per_frame"] = float64(now()-start) / probeCalls

	// Replayed bodies get fresh request ids from a range no connection
	// uses, so a replayed /checkout inserts a new order, not a duplicate.
	ctx := context.Background()
	calls := 0
	start = now()
	for ; calls < probeCalls && now()-start < int64(budget); calls++ {
		r := t.reqs[calls%len(t.reqs)]
		binary.BigEndian.PutUint64(r.body, 0xff<<40|uint64(calls))
		c, err := servlet.DecodeCookie(r.cookie)
		if err != nil {
			return fmt.Errorf("servlet probe: %w", err)
		}
		e := s.engine(c.Primary)
		if e == nil {
			return fmt.Errorf("servlet probe: cookie names unknown primary %q", c.Primary)
		}
		if resp := e.ServeCtx(ctx, r.path, r.cookie, r.body); resp.Status != 200 {
			return fmt.Errorf("servlet probe: %s: status %d: %s", r.path, resp.Status, resp.Body)
		}
	}
	out["servlet.serve_direct_us"] = float64(now()-start) / float64(calls) / 1e3
	return nil
}

// calibrate measures what the generator alone can drive: the same closed
// loop against a net/http handler that echoes the body and does nothing
// else. If the ceiling is not several times a workload's throughput, the
// generator is part of what that workload measures.
func calibrate(conns int, seed int64, window time.Duration) (float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body [bodyLen]byte
		if _, err := io.ReadFull(r.Body, body[:]); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		h := w.Header()
		h.Set("Set-Cookie", cookieName+"=calibrate; Path=/")
		h.Set("Content-Type", "application/octet-stream")
		h.Set("Content-Length", strconv.Itoa(bodyLen))
		_, _ = w.Write(body[:]) // a vanished client shows as a generator error
	})}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		_ = srv.Close() // the listener and every connection are ours
		<-done
	}()

	wl := workload{name: "calibrate", sessions: conns, mix: [4]int{kEcho: 100}}
	workers := make([]*worker, conns)
	for i := range workers {
		if workers[i], err = newWorker(i, conns, wl, seed, l.Addr().String(), nil); err != nil {
			return 0, err
		}
		defer workers[i].c.close() // nothing buffered to lose
	}
	if err := each(workers, (*worker).createSessions); err != nil {
		return 0, err
	}
	start := now()
	deadline := start + int64(window)
	_ = each(workers, func(w *worker) error { w.run(deadline); return nil })
	elapsed := float64(now()-start) / 1e9
	ok := 0
	for _, w := range workers {
		if w.err != nil {
			return 0, fmt.Errorf("calibrate: %w", w.err)
		}
		ok += w.ok
	}
	return float64(ok) / elapsed, nil
}
