package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"wls/internal/store"
)

// config is what one invocation runs. The load model is fixed: a closed
// loop of conns keep-alive connections with zero think time.
type config struct {
	wl       workload
	seed     int64
	seconds  float64 // timed seconds, split evenly over the segments
	segments int
	conns    int
	floor    time.Duration
	dataDir  string // parent of the per-segment store directories
	traceOut string // JSONL span dump of the traced segment ("" = none)
	timing   bool   // an untraced run also reports the unbounded times
}

// segment is what one timed window on one fresh system measured.
type segment struct {
	setupS   float64 // building the system: from nothing to serving
	prepareS float64 // the generator's own preparation: sessions, warm-up
	elapsedS float64
	ok       int
	failed   int
	meanUS   float64 // latency of OK requests, send to last byte
	p50US    float64
	p95US    float64
	p99US    float64
	cpuUS    float64 // process user+sys over the window
	mallocs  float64
	wireB    float64 // bytes the four transport nodes sent over the window
	heapMB   float64
	layers   map[string]float64 // per-layer values; traced segments only
}

// quantileUS returns the q-quantile of sorted ns values, in µs.
func quantileUS(sorted []int64, q float64) float64 {
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e3
}

func cpuNow() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e3, nil
}

// runSegment builds a fresh system, warms it, measures one timed window,
// checks the outputs and tears the system down. t is nil for an untraced
// segment.
func runSegment(cfg config, index int, seconds float64, t *tracer) (seg *segment, err error) {
	dir := filepath.Join(cfg.dataDir, fmt.Sprintf("seg%d", index))
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}()

	setupStart := now()
	s, err := buildSUT(dir, cfg.floor, t)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if cerr := s.close(); err == nil {
			err = cerr
		}
	}()
	seg = &segment{setupS: float64(now()-setupStart) / 1e9}
	workers := make([]*worker, cfg.conns+cfg.wl.writers())
	pace := newPacer(cfg.wl, cfg.conns)
	for i := range workers {
		if workers[i], err = newWorker(i, len(workers), cfg.wl, cfg.seed, s.httpAddr, pace); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		defer workers[i].c.close() // nothing buffered to lose
	}
	err = each(workers, func(w *worker) error {
		if err := w.createSessions(); err != nil {
			return err
		}
		return w.warmUp()
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	seg.prepareS = float64(now()-setupStart)/1e9 - seg.setupS

	// The collection is not part of set-up and not of the window: it only
	// puts every segment's heap in the same state at the start.
	runtime.GC()
	before := s.counters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, err := cpuNow()
	if err != nil {
		return nil, err
	}
	t.setOn(true)
	start := now()
	deadline := start + int64(seconds*1e9)
	_ = each(workers, func(w *worker) error { w.run(deadline); return nil })
	end := now()
	t.setOn(false)
	cpu1, err := cpuNow()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	after := s.counters()

	seg.elapsedS = float64(end-start) / 1e9
	seg.cpuUS = cpu1 - cpu0
	seg.mallocs = float64(m1.Mallocs - m0.Mallocs)
	seg.wireB = float64(after.bytesOut - before.bytesOut)
	var firstErr error
	var lat []int64
	var latSum int64
	for _, w := range workers {
		seg.ok += w.ok
		seg.failed += w.failed
		lat = append(lat, w.lat...)
		w.lat = nil // the generator's samples must not count as live heap below
		if firstErr == nil {
			firstErr = w.err
		}
	}
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "benchmark: first failed request:", firstErr)
	}
	if seg.ok == 0 {
		return nil, errors.New("no request succeeded in the timed window")
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	for _, v := range lat {
		latSum += v
	}
	seg.meanUS = float64(latSum) / float64(len(lat)) / 1e3
	seg.p50US, seg.p95US, seg.p99US = quantileUS(lat, 0.50), quantileUS(lat, 0.95), quantileUS(lat, 0.99)
	if t != nil {
		seg.layers = layerMetrics(t, seg, before, after, m0, m1)
		seg.layers["session.resident"] = float64(s.residentSessions())
		seg.layers["proc.goroutines"] = float64(runtime.NumGoroutine())
		if err := probes(s, t, seg.layers, sideWindow(seconds)); err != nil {
			return nil, err
		}
		if cfg.traceOut != "" {
			if err := t.writeJSONL(cfg.traceOut); err != nil {
				return nil, err
			}
		}
	}

	// Live heap with the system still standing, so server state that grows
	// without bound shows. The second collection empties the sync.Pool
	// victim caches, whose fill depends on where the window happened to end.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	seg.heapMB = float64(m1.HeapAlloc) / (1 << 20)

	if cfg.wl.durable() {
		if err := verifyDurable(s, workers); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: durable check failed:", err)
			seg.failed++
		}
	}
	return seg, nil
}

// each runs fn for every worker concurrently and waits for all of them.
func each(workers []*worker, fn func(*worker) error) error {
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(w)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// verifyDurable checks that every acknowledged checkout is in the stores,
// then closes both stores, reopens them from disk and checks again.
func verifyDurable(s *sut, workers []*worker) error {
	check := func(orders, inventory *store.Store, when string) error {
		for _, w := range workers {
			for _, key := range w.orders {
				if _, ok := orders.Get("orders", key); !ok {
					return fmt.Errorf("%s: acknowledged order %s is missing", when, key)
				}
			}
			for i, sold := range w.sold {
				sku := skuName(w.skuBase + i)
				row, ok := inventory.Get("stock", sku)
				// Version 1 is the preload; every checkout of the SKU
				// commits one update (the direct-call probe may add more).
				if !ok || row.Version < uint64(1+sold) {
					return fmt.Errorf("%s: stock/%s at version %d after %d acknowledged checkouts", when, sku, row.Version, sold)
				}
			}
		}
		return nil
	}
	if err := check(s.orders, s.inventory, "before close"); err != nil {
		return err
	}
	err := errors.Join(s.orders.Close(), s.inventory.Close())
	s.orders, s.inventory = nil, nil
	if err != nil {
		return err
	}
	orders, err := s.openStore("orders")
	if err != nil {
		return err
	}
	defer orders.Close() // opened only to read
	inventory, err := s.openStore("inventory")
	if err != nil {
		return err
	}
	defer inventory.Close() // opened only to read
	return check(orders, inventory, "after reopen from disk")
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runMetric is one value a segment measures; a run reports its median over
// the segments.
type runMetric struct {
	name, unit, better string
	of                 func(*segment) float64
}

// endToEnd are the end-to-end metrics BENCHMARK.json puts a bound on: the
// ones that repeat from run to run on a shared host.
var endToEnd = []runMetric{
	{"allocs_per_req", "count", "lower", func(g *segment) float64 { return g.mallocs / float64(g.ok) }},
	{"wire_bytes_per_req", "B", "lower", func(g *segment) float64 { return g.wireB / float64(g.ok) }},
	{"heap_live_mb", "MB", "lower", func(g *segment) float64 { return g.heapMB }},
	{"setup_s", "s", "lower", func(g *segment) float64 { return g.setupS }},
}

// timing are the end-to-end times, taken at the HTTP entry point, and the
// time the generator takes to create its sessions and warm the system up.
// They carry no bound, because they follow the host (README.md, "Why no
// time has a bound"): a run prints them on standard error, -timing adds them
// to the result line for -suite and -compare, and a traced run reports its
// untraced window's as bench.throughput_rps, bench.e2e_p50_us,
// bench.e2e_p95_us and gen.prepare_s.
var timing = []runMetric{
	{"throughput_rps", "req/s", "higher", func(g *segment) float64 { return float64(g.ok) / g.elapsedS }},
	{"latency_p50_us", "us", "lower", func(g *segment) float64 { return g.p50US }},
	{"latency_p95_us", "us", "lower", func(g *segment) float64 { return g.p95US }},
	{"prepare_s", "s", "lower", func(g *segment) float64 { return g.prepareS }},
}

// runUntraced measures cfg.segments windows, each on a fresh system, and
// reports the median of every end-to-end metric.
func runUntraced(cfg config) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	var segs []*segment
	for i := 0; i < cfg.segments; i++ {
		seg, err := runSegment(cfg, i, cfg.seconds/float64(cfg.segments), nil)
		if err != nil {
			return nil, err
		}
		segs = append(segs, seg)
		res.Attempted += seg.ok + seg.failed
		res.Failed += seg.failed
	}
	report := func(m runMetric, inResult bool) {
		vs := make([]float64, len(segs))
		for i, seg := range segs {
			vs[i] = m.of(seg)
		}
		_, med, _ := quartiles(vs)
		if inResult {
			res.Metrics[m.name] = metric{med, m.unit}
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s per segment: %.6g, median %.6g %s\n", m.name, vs, med, m.unit)
	}
	for _, m := range timing {
		report(m, cfg.timing)
	}
	for _, m := range endToEnd {
		report(m, true)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// sideWindow bounds the calibration and each direct-call probe of a traced
// run: a second, or the timed window if that is shorter (the smoke test).
func sideWindow(seconds float64) time.Duration {
	return time.Duration(min(1, seconds) * float64(time.Second))
}

// runTraced measures one untraced and one traced window of half the time
// each; the per-layer metrics come from the traced one and the difference
// in throughput between the two is the tracing overhead.
func runTraced(cfg config) (*result, error) {
	half := cfg.seconds / 2
	plain, err := runSegment(cfg, 0, half, nil)
	if err != nil {
		return nil, err
	}
	ceiling, err := calibrate(cfg.conns, cfg.seed, sideWindow(half))
	if err != nil {
		return nil, err
	}
	// Sized for the busiest workload: ~10 spans per request at ~25k req/s.
	t := newTracer(int(half*300_000) + 100_000)
	traced, err := runSegment(cfg, 1, half, t)
	if err != nil {
		return nil, err
	}
	traced.layers["gen.ceiling_rps"] = ceiling
	traced.layers["gen.prepare_s"] = plain.prepareS
	traced.layers["proc.cpu_us_per_req"] = plain.cpuUS / float64(plain.ok)
	traced.layers["bench.throughput_rps"] = float64(plain.ok) / plain.elapsedS
	traced.layers["bench.e2e_p50_us"] = plain.p50US
	traced.layers["bench.e2e_p95_us"] = plain.p95US
	traced.layers["bench.e2e_p99_us"] = plain.p99US
	traced.layers["bench.trace_overhead_share"] = 1 - (float64(traced.ok)/traced.elapsedS)/(float64(plain.ok)/plain.elapsedS)

	res := &result{
		Attempted: plain.ok + plain.failed + traced.ok + traced.failed,
		Failed:    plain.failed + traced.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{traced.layers[m.name], m.unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}
