// Package metrics provides the lightweight counters and latency histograms
// used by the benchmark harness and by the server's monitoring subsystem
// (the paper's §5.1 notes that monitoring/auditing data is a first-class
// category of middle-tier data).
//
// The histogram uses fixed log-scaled buckets so recording is a single
// atomic increment; percentile queries interpolate within a bucket. That is
// accurate enough for the "shape" comparisons the experiment harness makes
// and keeps the hot path allocation-free.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that can move both ways.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (n may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// ---------------------------------------------------------------------------
// Histogram

// numBuckets covers 1ns .. ~17.6s with ~4.3% relative error (16 buckets per
// power of two, 34 powers).
const (
	bucketsPerOctave = 16
	numOctaves       = 34
	numBuckets       = bucketsPerOctave*numOctaves + 1
)

// Histogram records durations (or any non-negative int64 values) into
// log-scaled buckets. The zero value is ready to use and safe for
// concurrent recording.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	min     atomic.Int64 // stored as -min to allow CAS from zero; see Record
	hasMin  atomic.Bool
	mu      sync.Mutex // serializes min updates only
}

// subBucketFloor[j] is 2^(j/16) scaled so that 1.0 is 1<<63: the smallest
// mantissa that falls in sub-bucket j of its octave.
var subBucketFloor = func() (t [bucketsPerOctave]uint64) {
	for j := range t {
		t[j] = uint64(math.Exp2(63 + float64(j)/bucketsPerOctave))
	}
	return t
}()

// bucketIndex maps a value to its bucket, floor(16·log2 v), without
// floating point: the octave is the position of the top bit, and the
// sub-bucket is found by comparing the mantissa against the 16 thresholds.
func bucketIndex(v int64) int {
	if v < 1 {
		return 0
	}
	octave := bits.Len64(uint64(v)) - 1
	mantissa := uint64(v) << (63 - octave)
	sub := 0
	for step := bucketsPerOctave / 2; step > 0; step /= 2 {
		if mantissa >= subBucketFloor[sub+step] {
			sub += step
		}
	}
	idx := octave*bucketsPerOctave + sub
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// bucketLower returns the lower bound of bucket i.
func bucketLower(i int) int64 {
	return int64(math.Pow(2, float64(i)/bucketsPerOctave))
}

// Record adds one observation.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur {
			break
		}
		if h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	if !h.hasMin.Load() || v < h.min.Load() {
		h.mu.Lock()
		if !h.hasMin.Load() || v < h.min.Load() {
			h.min.Store(v)
			h.hasMin.Store(true)
		}
		h.mu.Unlock()
	}
}

// RecordDuration records d in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Max returns the largest observation, or 0 when empty.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Min returns the smallest observation, or 0 when empty.
func (h *Histogram) Min() int64 {
	if !h.hasMin.Load() {
		return 0
	}
	return h.min.Load()
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1).
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(n-1))
	var seen int64
	for i := 0; i < numBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		if seen+c > rank {
			// Interpolate within the bucket.
			lo := bucketLower(i)
			hi := bucketLower(i + 1)
			if hi <= lo {
				return lo
			}
			frac := float64(rank-seen) / float64(c)
			return lo + int64(frac*float64(hi-lo))
		}
		seen += c
	}
	return h.max.Load()
}

// P50, P95, P99, P999 are convenience accessors.
func (h *Histogram) P50() int64  { return h.Quantile(0.50) }
func (h *Histogram) P95() int64  { return h.Quantile(0.95) }
func (h *Histogram) P99() int64  { return h.Quantile(0.99) }
func (h *Histogram) P999() int64 { return h.Quantile(0.999) }

// MeanDuration returns the mean as a time.Duration.
func (h *Histogram) MeanDuration() time.Duration { return time.Duration(h.Mean()) }

// String summarizes the histogram for harness output.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.Count(),
		time.Duration(h.Mean()).Round(time.Microsecond),
		time.Duration(h.P50()).Round(time.Microsecond),
		time.Duration(h.P95()).Round(time.Microsecond),
		time.Duration(h.P99()).Round(time.Microsecond),
		time.Duration(h.Max()).Round(time.Microsecond))
}

// ---------------------------------------------------------------------------
// Registry

// Registry is a named collection of metrics, one per server, that the admin
// tooling can snapshot.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// MetricValue is one named metric in a Snapshot. Kind is "counter",
// "gauge", or "hist"; Value carries the counter/gauge value (the
// observation count for histograms); Hist is set for histograms only.
type MetricValue struct {
	Kind  string
	Name  string
	Value int64
	Hist  *HistogramSummary
}

// HistogramSummary is the percentile digest of one histogram, in the
// histogram's native units (nanoseconds for latencies).
type HistogramSummary struct {
	Count                    int64
	Mean                     float64
	Min, P50, P95, P99, P999 int64
	Max                      int64
}

// Summary digests the histogram.
func (h *Histogram) Summary() HistogramSummary {
	return HistogramSummary{
		Count: h.Count(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		P50:   h.P50(),
		P95:   h.P95(),
		P99:   h.P99(),
		P999:  h.P999(),
		Max:   h.Max(),
	}
}

// Snapshot returns a stable-ordered structured dump of every metric:
// sorted by name, then kind, so two snapshots of the same registry state
// are identical element for element. RenderText turns it into the
// human-readable form served by the admin tooling.
func (r *Registry) Snapshot() []MetricValue {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MetricValue, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		out = append(out, MetricValue{Kind: "counter", Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, MetricValue{Kind: "gauge", Name: name, Value: g.Value()})
	}
	for name, h := range r.histograms {
		s := h.Summary()
		out = append(out, MetricValue{Kind: "hist", Name: name, Value: s.Count, Hist: &s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// RenderText renders a snapshot one metric per line, aligned for
// terminals (the `wlsadmin metrics` output format).
func RenderText(snap []MetricValue) string {
	width := 0
	for _, m := range snap {
		if len(m.Name) > width {
			width = len(m.Name)
		}
	}
	var b strings.Builder
	for _, m := range snap {
		switch m.Kind {
		case "hist":
			h := m.Hist
			fmt.Fprintf(&b, "hist    %-*s n=%d mean=%v p50=%v p95=%v p99=%v p999=%v max=%v\n",
				width, m.Name, h.Count,
				time.Duration(h.Mean).Round(time.Microsecond),
				time.Duration(h.P50).Round(time.Microsecond),
				time.Duration(h.P95).Round(time.Microsecond),
				time.Duration(h.P99).Round(time.Microsecond),
				time.Duration(h.P999).Round(time.Microsecond),
				time.Duration(h.Max).Round(time.Microsecond))
		default:
			fmt.Fprintf(&b, "%-7s %-*s %d\n", m.Kind, width, m.Name, m.Value)
		}
	}
	return b.String()
}
