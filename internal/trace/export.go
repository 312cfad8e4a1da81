package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// ---------------------------------------------------------------------------
// In-memory ring exporter

// Ring is a fixed-capacity in-memory exporter: it keeps the most recent
// spans and a monotone total, which lets the admin tooling tail a live
// domain (dump everything after sequence N). One Ring is typically shared
// by every tracer in a cluster so a whole trace can be assembled from one
// snapshot.
type Ring struct {
	mu    sync.Mutex
	buf   []SpanData
	next  int
	total uint64
}

// NewRing builds a ring holding up to capacity spans.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]SpanData, 0, capacity)}
}

// ExportSpan implements Exporter.
func (r *Ring) ExportSpan(d SpanData) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, d)
	} else {
		r.buf[r.next] = d
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the retained spans, oldest first.
func (r *Ring) Snapshot() []SpanData {
	s, _ := r.SnapshotSince(0)
	return s
}

// SnapshotSince returns the retained spans with sequence >= since (oldest
// first, sequence numbers start at 0) and the sequence to pass next time —
// the tail protocol used by `wlsadmin trace -follow`.
func (r *Ring) SnapshotSince(since uint64) ([]SpanData, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	first := r.total - n // sequence of the oldest retained span
	if since < first {
		since = first
	}
	if since >= r.total {
		return nil, r.total
	}
	out := make([]SpanData, 0, r.total-since)
	for seq := since; seq < r.total; seq++ {
		out = append(out, r.buf[(r.next+int(seq-first))%len(r.buf)])
	}
	return out, r.total
}

// ---------------------------------------------------------------------------
// JSON-lines exporter

// JSONL writes one JSON object per finished span, suitable for files and
// pipes.
type JSONL struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJSONL builds a JSON-lines exporter over w.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: w} }

type spanJSON struct {
	Trace  string `json:"trace"`
	Span   string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Server string `json:"server"`
	// Start and End are nanoseconds on the tracer's clock (Unix epoch).
	Start       int64        `json:"start"`
	End         int64        `json:"end"`
	Error       string       `json:"error,omitempty"`
	Annotations []Annotation `json:"annotations,omitempty"`
}

func toJSON(d SpanData) spanJSON {
	j := spanJSON{
		Trace:  d.Trace.String(),
		Span:   d.ID.String(),
		Name:   d.Name,
		Kind:   d.Kind.String(),
		Server: d.Server,
		Start:  d.Start.UnixNano(),
		End:    d.End.UnixNano(),
		Error:  d.Error,
	}
	if d.Parent != 0 {
		j.Parent = d.Parent.String()
	}
	if len(d.Annotations) > 0 {
		j.Annotations = d.Annotations
	}
	return j
}

// ExportSpan implements Exporter.
func (j *JSONL) ExportSpan(d SpanData) {
	b, err := json.Marshal(toJSON(d))
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if err != nil {
		j.err = err
		return
	}
	if _, err := j.w.Write(append(b, '\n')); err != nil {
		j.err = err
	}
}

// Err returns the first marshal/write error, if any.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// ---------------------------------------------------------------------------
// Chrome trace-event export

// WriteChromeTrace writes spans in the Chrome trace-event JSON format, for
// loading into chrome://tracing or Perfetto. Servers map to threads of one
// process, in sorted order so the output is deterministic.
func WriteChromeTrace(w io.Writer, spans []SpanData) error {
	servers := ServersOf(spans)
	tid := make(map[string]int, len(servers))
	for i, s := range servers {
		tid[s] = i + 1
	}
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`  // microseconds
		Dur  float64           `json:"dur"` // microseconds
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	events := make([]event, 0, len(spans)+len(servers))
	for _, s := range servers {
		events = append(events, event{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid[s],
			Args: map[string]string{"name": s},
		})
	}
	for _, d := range sortSpans(spans) {
		args := map[string]string{
			"trace": d.Trace.String(),
			"span":  d.ID.String(),
		}
		if d.Parent != 0 {
			args["parent"] = d.Parent.String()
		}
		if d.Error != "" {
			args["error"] = d.Error
		}
		for _, a := range d.Annotations {
			args[a.Key] = a.Value
		}
		events = append(events, event{
			Name: d.Name,
			Cat:  d.Kind.String(),
			Ph:   "X",
			Ts:   float64(d.Start.UnixNano()) / 1e3,
			Dur:  float64(d.End.Sub(d.Start).Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  tid[d.Server],
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}

// ---------------------------------------------------------------------------
// Canonical dump and trace-derived assertions

// sortSpans returns a copy ordered by (trace, span id) — a stable, total
// order independent of export interleaving.
func sortSpans(spans []SpanData) []SpanData {
	out := append([]SpanData(nil), spans...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Trace != b.Trace {
			if a.Trace.Hi != b.Trace.Hi {
				return a.Trace.Hi < b.Trace.Hi
			}
			return a.Trace.Lo < b.Trace.Lo
		}
		return a.ID < b.ID
	})
	return out
}

// CanonicalDump renders spans in a stable text form: sorted by (trace,
// span), one line per span, timestamps as nanoseconds on the cluster
// clock. Two deterministic runs with the same (seed, config) produce
// byte-identical dumps.
func CanonicalDump(spans []SpanData) string {
	var b strings.Builder
	for _, d := range sortSpans(spans) {
		fmt.Fprintf(&b, "trace=%s span=%s parent=%s kind=%s server=%s name=%q start=%d end=%d",
			d.Trace, d.ID, d.Parent, d.Kind, d.Server, d.Name,
			d.Start.UnixNano(), d.End.UnixNano())
		if d.Error != "" {
			fmt.Fprintf(&b, " err=%q", d.Error)
		}
		for _, a := range d.Annotations {
			fmt.Fprintf(&b, " %s=%q", a.Key, a.Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ServersOf returns the distinct servers appearing in spans, sorted.
func ServersOf(spans []SpanData) []string {
	seen := make(map[string]bool)
	var out []string
	for _, d := range spans {
		if !seen[d.Server] {
			seen[d.Server] = true
			out = append(out, d.Server)
		}
	}
	sort.Strings(out)
	return out
}

// ServersTouched returns the sorted set of servers that executed
// server-side work for the given trace — the paper's "number of servers
// involved in processing a request" (§3.1), read directly off the trace
// instead of inferred from counters. Routing tiers and pure client spans
// do not count as touched servers.
func ServersTouched(spans []SpanData, id TraceID) []string {
	seen := make(map[string]bool)
	var out []string
	for _, d := range spans {
		if d.Trace != id || d.Server == "" {
			continue
		}
		// KindServer is a request handled on a server; KindSession is a
		// replication write applied on the secondary (it arrives as a
		// server span too, but count the origin side's intent as well).
		if d.Kind != KindServer {
			continue
		}
		if !seen[d.Server] {
			seen[d.Server] = true
			out = append(out, d.Server)
		}
	}
	sort.Strings(out)
	return out
}

// HopCount returns the number of cross-server request handlings in the
// trace (server-kind spans): the trace-derived measure of how far a
// request spread.
func HopCount(spans []SpanData, id TraceID) int {
	n := 0
	for _, d := range spans {
		if d.Trace == id && d.Kind == KindServer {
			n++
		}
	}
	return n
}
