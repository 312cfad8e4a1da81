package metrics

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("Value = %d, want 7", g.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("Value = %d, want 8000", c.Value())
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 100; i++ {
		h.Record(i * 1000)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Max() != 100000 {
		t.Fatalf("Max = %d, want 100000", h.Max())
	}
	if got, want := h.Mean(), 50500.0; math.Abs(got-want) > 1 {
		t.Fatalf("Mean = %f, want %f", got, want)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 10000; i++ {
		h.Record(i)
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.5, 5000}, {0.95, 9500}, {0.99, 9900}} {
		got := h.Quantile(tc.q)
		// Log-bucketed: allow ~10% relative error.
		if math.Abs(float64(got-tc.want)) > 0.10*float64(tc.want) {
			t.Errorf("Quantile(%v) = %d, want ~%d", tc.q, got, tc.want)
		}
	}
}

func TestHistogramEmptyAndClamping(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Record(-5) // clamped to 0
	if h.Sum() != 0 || h.Count() != 1 {
		t.Fatalf("negative record: sum=%d count=%d", h.Sum(), h.Count())
	}
	h.Record(100)
	if h.Quantile(-1) > h.Quantile(2) {
		t.Fatal("out-of-range quantiles must clamp monotonically")
	}
}

func TestHistogramPropertyQuantileWithinRange(t *testing.T) {
	f := func(vals []uint16, qRaw uint8) bool {
		if len(vals) == 0 {
			return true
		}
		var h Histogram
		var hi int64
		for _, v := range vals {
			h.Record(int64(v))
			if int64(v) > hi {
				hi = int64(v)
			}
		}
		q := float64(qRaw) / 255
		got := h.Quantile(q)
		// Estimate may overshoot hi by bucket interpolation, but never by
		// more than one bucket width (~9%).
		return got >= 0 && float64(got) <= float64(hi)*1.10+1 && h.Max() == hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramRecordDuration(t *testing.T) {
	var h Histogram
	h.Record(int64(5 * time.Millisecond))
	if h.Count() != 1 || h.Max() != int64(5*time.Millisecond) {
		t.Fatalf("duration not recorded: %s", h.String())
	}
	if h.MeanDuration() != 5*time.Millisecond {
		t.Fatalf("MeanDuration = %v", h.MeanDuration())
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 1; j <= 1000; j++ {
				h.Record(int64(j))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", h.Count())
	}
}

func TestRegistryReturnsSameInstance(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("requests")
	c1.Inc()
	c2 := r.Counter("requests")
	if c2.Value() != 1 {
		t.Fatal("registry must return the same counter instance per name")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("gauge identity")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("histogram identity")
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Inc()
	r.Counter("a").Add(2)
	r.Gauge("z").Set(9)
	r.Histogram("lat").Record(100)
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		a, b := snap[i-1], snap[i]
		if a.Name > b.Name || (a.Name == b.Name && a.Kind > b.Kind) {
			t.Fatalf("snapshot not sorted: %v", snap)
		}
	}
	if snap[0].Name != "a" || snap[0].Kind != "counter" || snap[0].Value != 2 {
		t.Fatalf("snap[0] = %+v", snap[0])
	}
	var hist *MetricValue
	for i := range snap {
		if snap[i].Kind == "hist" {
			hist = &snap[i]
		}
	}
	if hist == nil || hist.Name != "lat" || hist.Hist == nil || hist.Hist.Count != 1 {
		t.Fatalf("histogram entry wrong: %+v", hist)
	}
}

func TestSnapshotStableAcrossCalls(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"q", "a", "m", "z", "b"} {
		r.Counter(n).Inc()
		r.Gauge("g." + n).Set(1)
		r.Histogram("h." + n).Record(10)
	}
	s1, s2 := r.Snapshot(), r.Snapshot()
	if len(s1) != len(s2) {
		t.Fatalf("lengths differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i].Name != s2[i].Name || s1[i].Kind != s2[i].Kind || s1[i].Value != s2[i].Value {
			t.Fatalf("element %d differs: %+v vs %+v", i, s1[i], s2[i])
		}
	}
}

func TestRenderText(t *testing.T) {
	r := NewRegistry()
	r.Counter("rmi.requests").Add(7)
	r.Gauge("pool.size").Set(3)
	h := r.Histogram("lat")
	for i := 0; i < 1000; i++ {
		h.Record(int64(i))
	}
	out := RenderText(r.Snapshot())
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "hist    lat") || !strings.Contains(lines[0], "p999=") {
		t.Fatalf("hist line: %q", lines[0])
	}
	if !strings.Contains(lines[1], "pool.size") || !strings.Contains(lines[1], "3") {
		t.Fatalf("gauge line: %q", lines[1])
	}
	if !strings.Contains(lines[2], "rmi.requests") || !strings.Contains(lines[2], "7") {
		t.Fatalf("counter line: %q", lines[2])
	}
}

func TestP999(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 10000; i++ {
		h.Record(int64(i))
	}
	p99, p999, max := h.P99(), h.P999(), h.Max()
	if p999 < p99 {
		t.Fatalf("p999 %d < p99 %d", p999, p99)
	}
	// Bucket interpolation may overshoot max by up to one bucket (~9%).
	if float64(p999) > float64(max)*1.10 {
		t.Fatalf("p999 %d far above max %d", p999, max)
	}
	// ~4.3% bucket error: the true p999 of 1..10000 is 9991.
	if p999 < 9000 {
		t.Fatalf("p999 = %d, want ≈9991", p999)
	}
}

func TestBucketMonotonicity(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < numBuckets; i++ {
		lo := bucketLower(i)
		if lo < prev {
			t.Fatalf("bucketLower not monotone at %d: %d < %d", i, lo, prev)
		}
		prev = lo
	}
	if bucketIndex(0) != 0 || bucketIndex(1) != 0 {
		t.Fatal("small values must land in bucket 0")
	}
	if bucketIndex(math.MaxInt64) != numBuckets-1 {
		t.Fatal("huge values must clamp to the last bucket")
	}
}

// TestBucketIndexMatchesLog2 pins the integer bucketing to the layout the
// floating-point formula floor(16·log2 v) defined: same bucket for every
// value, except exactly on a boundary where the two roundings may differ
// by one — and there bucketLower must still bracket the value.
func TestBucketIndexMatchesLog2(t *testing.T) {
	check := func(v int64) {
		if v < 1 {
			return
		}
		got := bucketIndex(v)
		want := int(math.Log2(float64(v)) * bucketsPerOctave)
		if want >= numBuckets {
			want = numBuckets - 1
		}
		if got == want {
			return
		}
		if d := got - want; d < -1 || d > 1 || got == numBuckets-1 ||
			bucketLower(got) > v || bucketLower(got+1) < v {
			t.Fatalf("bucketIndex(%d) = %d, log2 formula gives %d", v, got, want)
		}
	}
	for v := int64(1); v < 1<<16; v++ {
		check(v)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		check(rng.Int63() >> uint(rng.Intn(63)))
	}
	for i := 0; i < numBuckets; i++ {
		lo := bucketLower(i)
		check(lo)
		check(lo + 1)
		if lo > 1 {
			check(lo - 1)
		}
	}
	if bucketIndex(0) != 0 || bucketIndex(-5) != 0 || bucketIndex(math.MaxInt64) != numBuckets-1 {
		t.Fatal("edge values misbucketed")
	}
}

var histSink *Histogram

func BenchmarkHistogramRecord(b *testing.B) {
	h := &Histogram{}
	histSink = h
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i)*37 + 1)
	}
}
