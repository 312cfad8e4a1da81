package servlet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"wls/internal/attrs"
	"wls/internal/cluster"
	"wls/internal/rmi"
	"wls/internal/simtest"
	"wls/internal/wire"
)

// TestReusedBatchCarriesNothingStale drives the replication batcher of one
// secondary from several writers — two per session, four sessions — while
// a netsim partition cuts the link to it, heals it, and then flaps it under
// the writers. A leader whose batch no follower joined keeps it as the
// batcher's spare, so batches that failed are flushed again. The secondary
// logs every delta entry it is sent, and the test holds three rules:
//   - a write's outcome is its batch's: it returned nil only if the
//     secondary got its delta, and wire.ErrNotRun exactly when it did not;
//   - the secondary gets each session's generations in increasing order;
//   - a spare is zeroed — no err, count, done or encoder survives a flush,
//     failed or not — and is taken by the next leader.
func TestReusedBatchCarriesNothingStale(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	t.Cleanup(f.Stop)
	const service = "batchtest"
	primary := NewReplicatedManager(f.Servers[0].Registry, service)

	type entry struct {
		id   string
		gen  uint64
		list string
	}
	var (
		mu      sync.Mutex
		applied []entry
		widest  int
		// hold makes the next batch wait in the handler until followers
		// have joined it or the one pending behind it.
		hold atomic.Bool
		rb   *replBatcher
	)
	f.Servers[1].Registry.Register(&rmi.Service{Name: service, Methods: map[string]rmi.MethodSpec{
		"session.update.batch": {System: true, Handler: func(_ context.Context, c *rmi.Call) ([]byte, error) {
			var got []entry
			for d := wire.NewDecoder(c.Args); d.Remaining() > 0; {
				id := string(d.Raw(cluster.IDLen))
				gen := d.Uint64()
				list, err := attrs.Read(d, false)
				if err != nil {
					return nil, err
				}
				got = append(got, entry{id, gen, string(list)})
			}
			if len(got) >= 2 {
				// Followers joined this batch already — perhaps every
				// writer, and then none is left to join one behind it.
				hold.Store(false)
			}
			for hold.CompareAndSwap(true, true) {
				rb.mu.Lock()
				if rb.pending != nil && rb.pending.count >= 2 {
					hold.Store(false)
				}
				rb.mu.Unlock()
				runtime.Gosched()
			}
			mu.Lock()
			defer mu.Unlock()
			applied = append(applied, got...)
			widest = max(widest, len(got))
			return nil, nil
		}},
	}})

	const sessions, perSession, writes = 4, 2, 200
	sec := primary.secIndex("server-2")
	rb = (*primary.repl.Load())[sec]
	states := make([]*sessState, sessions)
	for k := range states {
		st := newSessState(fmt.Sprintf("batch-session-%02d", k), attrs.Merge("", 0, nil, listOf("w0", "-", "w1", "-")), 0)
		st.place.Store(uint64(primaryAt(0, sec)))
		states[k] = st
	}

	// write ships one delta of session k from writer j of that session.
	type outcome struct {
		id, list string
		err      error
	}
	seq := make([]int, sessions*perSession)
	write := func(k, j int) outcome {
		seq[k*perSession+j]++
		delta := listOf(fmt.Sprintf("w%d", j), fmt.Sprint(seq[k*perSession+j]))
		_, err := primary.shipTo(context.Background(), states[k], delta, 0, 0)
		return outcome{states[k].id(), string(delta), err}
	}
	// burst runs every writer for writes deltas at once.
	burst := func() []outcome {
		out := make([][]outcome, sessions*perSession)
		var wg sync.WaitGroup
		for w := range out {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < writes; i++ {
					out[w] = append(out[w], write(w/perSession, w%perSession))
				}
			}(w)
		}
		wg.Wait()
		var all []outcome
		for _, o := range out {
			all = append(all, o...)
		}
		return all
	}
	spare := func() *replBatch {
		rb.mu.Lock()
		defer rb.mu.Unlock()
		if rb.pending != nil {
			t.Fatal("a batch is still pending with every writer returned")
		}
		if b := rb.spare; b != nil && *b != (replBatch{}) {
			t.Fatalf("the spare batch kept state: %+v", *b)
		}
		return rb.spare
	}
	var all []outcome
	expect := func(what string, outs []outcome, failed bool) {
		t.Helper()
		for _, o := range outs {
			if errors.Is(o.err, wire.ErrNotRun) != failed || (o.err != nil) != failed {
				t.Fatalf("%s: write %q of %q returned %v", what, o.list, cluster.IDString(o.id), o.err)
			}
		}
		all = append(all, outs...)
	}

	// Cut: every flush fails, and a lone write's batch, follower-free,
	// becomes the spare after its failed flush.
	f.Partition("server-1", "server-2", true)
	expect("cut", burst(), true)
	expect("cut, alone", []outcome{write(0, 0)}, true)
	failedSpare := spare()
	if failedSpare == nil {
		t.Fatal("a follower-free batch was not kept after its failed flush")
	}

	// Healed: the next leader takes that spare, and its flush succeeds.
	f.Partition("server-1", "server-2", false)
	expect("healed, alone", []outcome{write(0, 0)}, false)
	if spare() != failedSpare {
		t.Fatal("the next leader did not reuse the spare batch")
	}
	hold.Store(true)
	expect("healed", burst(), false)
	mu.Lock()
	if widest < 2 {
		t.Fatalf("no follower joined a batch: the widest carried %d entries", widest)
	}
	mu.Unlock()
	spare()

	// Flapping: each write returns what became of its own batch.
	stop, flapped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(flapped)
		for cut := true; ; cut = !cut {
			select {
			case <-stop:
				f.Partition("server-1", "server-2", false)
				return
			default:
			}
			f.Partition("server-1", "server-2", cut)
			runtime.Gosched()
		}
	}()
	outs := burst()
	close(stop)
	<-flapped
	all = append(all, outs...)
	spare()

	mu.Lock()
	defer mu.Unlock()
	got := map[[2]string]bool{}
	last := map[string]uint64{}
	for _, e := range applied {
		if e.gen <= last[e.id] {
			t.Fatalf("secondary got generation %d of %q after %d", e.gen, cluster.IDString(e.id), last[e.id])
		}
		last[e.id] = e.gen
		got[[2]string{e.id, e.list}] = true
	}
	failed := 0
	for _, o := range all {
		// A cut reply leaves a write that reached the secondary with an
		// error too, but never with one saying it did not run.
		sent := got[[2]string{o.id, o.list}]
		if sent == errors.Is(o.err, wire.ErrNotRun) || o.err == nil && !sent {
			t.Fatalf("write %q of %q returned %v, but the secondary got it: %v", o.list, cluster.IDString(o.id), o.err, sent)
		}
		if o.err != nil {
			failed++
		}
	}
	t.Logf("%d writes, %d failed; %d entries reached the secondary, up to %d a batch", len(all), failed, len(applied), widest)
}
