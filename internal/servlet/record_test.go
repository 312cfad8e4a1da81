package servlet

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"wls/internal/attrs"
	"wls/internal/partition"
	"wls/internal/simtest"
	"wls/internal/store"
	"wls/internal/wire"
)

// opServlet runs the body's ops against the session — "S key value" sets,
// "G key" gets — and answers with the gets' values and the attribute
// count, one per line.
func opServlet(r *Request) Response {
	var out []string
	for _, op := range strings.Split(string(r.Body), "\n") {
		f := strings.Split(op, " ")
		switch f[0] {
		case "S":
			r.Session.Set(f[1], f[2])
		case "G":
			out = append(out, r.Session.Get(f[1]))
		}
	}
	out = append(out, fmt.Sprint(r.Session.Len()))
	return Response{Body: []byte(strings.Join(out, "\n"))}
}

func modelEngines(t *testing.T, n int, mode SessionMode) []*Engine {
	t.Helper()
	f := simtest.New(simtest.Options{Servers: n})
	t.Cleanup(f.Stop)
	cfg := Config{Sessions: mode}
	if mode == SessionsPersistent {
		cfg.DB = store.New("backend", f.Clock)
	}
	var engines []*Engine
	for _, s := range f.Servers {
		engines = append(engines, modelEngine(s, cfg))
	}
	f.Settle(2)
	return engines
}

func modelEngine(s *simtest.Server, cfg Config) *Engine {
	e := NewEngine(s.Registry, cfg)
	e.Handle("/op", opServlet)
	return e
}

// held returns a resident session's attributes and generation (nil if e
// does not hold the session), failing t when the record is not well-formed.
func held(t *testing.T, e *Engine, id string) (map[string]string, uint64) {
	t.Helper()
	st := e.sessions.get([]byte(id))
	if st == nil {
		return nil, 0
	}
	l := st.lock()
	l.mu.Lock()
	defer l.mu.Unlock()
	m, err := checkList(st.list)
	if err != nil || st.id() != id {
		t.Fatalf("record %x: %q of session %x: %v", st.id(), st.list, id, err)
	}
	return m, st.gen
}

// fetch is Fig 3's copy of session id from the engine on server: its
// attribute list and generation.
func fetch(e *Engine, server, id string) ([]byte, uint64, error) {
	from, ok := e.sessions.member.Lookup(server)
	if !ok {
		return nil, 0, fmt.Errorf("%s not in view", server)
	}
	return e.sessions.fetchFrom(context.Background(), from, []byte(id))
}

// attrMap reads a fetched attribute list, failing t unless it is a
// record's: keys ascending, each once, canonically encoded.
func attrMap(t *testing.T, list []byte) map[string]string {
	t.Helper()
	m, err := checkList(string(list))
	if err != nil {
		t.Fatalf("fetched list %q: %v", list, err)
	}
	return m
}

// checkList reads a record's attribute list into a map, or says how it is
// not well-formed: keys ascend strictly, every length is in bounds and
// nothing follows the list — the bytes a sorted map encodes to, exactly.
func checkList(rec string) (map[string]string, error) {
	d := wire.NewDecoder([]byte(rec))
	list, err := attrs.Read(d, false)
	if err != nil {
		return nil, err
	}
	n := attrs.Len(list)
	if d.Remaining() > 0 {
		return nil, fmt.Errorf("%d bytes after the list", d.Remaining())
	}
	m := attrs.Map(list)
	if len(m) != n {
		return nil, fmt.Errorf("a key held twice in %q", list)
	}
	e := wire.NewEncoder(len(list))
	attrs.AppendMap(e, m)
	if string(e.Bytes()) != string(list) {
		return nil, fmt.Errorf("list %q is not %q, its keys in order", list, e.Bytes())
	}
	return m, nil
}

func sameState(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: holds %v, model %v", what, got, want)
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Fatalf("%s: holds %v, model %v", what, got, want)
		}
	}
}

// TestSessStateSize: every resident copy of every session pays this (DESIGN.md
// "What a resident session costs"), exactly a size class; a field added
// beside the placement word makes it 64.
func TestSessStateSize(t *testing.T) {
	if got := unsafe.Sizeof(sessState{}); got != 48 {
		t.Fatalf("sessState is %d bytes, want 48", got)
	}
}

// TestSessionRecordModel drives random sequences of requests (sets and gets
// in one request), failovers to the other engine (Fig 2 promotion in
// replicated mode), Fig 3 fetches, and hand-built deltas with fresh and
// stale generations, and compares everything the record answers — to the
// servlet, to a fetch, on the replica — with a plain map.
func TestSessionRecordModel(t *testing.T) {
	keys := []string{"n", "item", "user", "k3", "k4", "k5", "k6"}
	modes := []struct {
		name string
		mode SessionMode
	}{{"replicated", SessionsReplicated}, {"persistent", SessionsPersistent}, {"client-cookie", SessionsClientCookie}}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			for seed := int64(1); seed <= 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				engines := modelEngines(t, 2, m.mode)
				model := map[string]string{}
				cookie, id, at := "", "", 0

				// A replica-only session on engine 1, fed by hand.
				replica, replicaGen := map[string]string{}, uint64(0)
				const replicaID = "model-replica-id" // a record id: 16 bytes

				for step := 0; step < 250; step++ {
					switch p := rng.Intn(10); {
					case p < 6: // one request: a few sets and gets
						var ops, wantOut []string
						wrote, had := false, len(model) > 0
						for i := rng.Intn(4) + 1; i > 0; i-- {
							k := keys[rng.Intn(len(keys))]
							if rng.Intn(2) == 0 {
								v := fmt.Sprint(rng.Intn(5)) // few values: same-value writes happen
								if rng.Intn(8) == 0 {
									v = ""
								}
								ops = append(ops, "S "+k+" "+v)
								model[k] = v
								wrote = true
							} else {
								ops = append(ops, "G "+k)
								wantOut = append(wantOut, model[k])
							}
						}
						wantOut = append(wantOut, fmt.Sprint(len(model)))
						resp := engines[at].Serve("/op", cookie, []byte(strings.Join(ops, "\n")))
						if got := string(resp.Body); resp.Status != 200 || got != strings.Join(wantOut, "\n") {
							t.Fatalf("seed %d step %d: ops %q answered %d %q, model %q", seed, step, ops, resp.Status, got, wantOut)
						}
						if m.mode == SessionsClientCookie && !wrote && cookie != "" && resp.Cookie != "" {
							t.Fatalf("seed %d step %d: equal state, different cookie", seed, step)
						}
						if resp.Cookie != "" {
							cookie = resp.Cookie
						}
						c, err := DecodeCookie(cookie)
						if err != nil {
							t.Fatal(err)
						}
						// The id changes only where no copy holds state: a
						// session never written has none on its secondary,
						// so a request there starts one under a new id.
						if c.ID != id && id != "" && had {
							t.Fatalf("seed %d step %d: session %x of state %v renamed %x", seed, step, id, model, c.ID)
						}
						id = c.ID
						if m.mode == SessionsClientCookie {
							sameState(t, "cookie", c.State, model)
						}
					case p < 7: // the next request goes to the other engine
						if id != "" {
							at = 1 - at
						}
					case p < 8: // Fig 3's fetch, from the engine not serving
						if m.mode != SessionsReplicated || len(model) == 0 {
							continue
						}
						list, gen, err := fetch(engines[at], engines[1-at].serverName, id)
						if err != nil {
							t.Fatalf("seed %d step %d: fetch: %v", seed, step, err)
						}
						sameState(t, "fetch", attrMap(t, list), model)
						if _, holds := held(t, engines[1-at], id); gen != holds {
							t.Fatalf("seed %d step %d: fetched generation %d of a record at %d", seed, step, gen, holds)
						}
					default: // a hand-built batch of deltas, fresh and stale
						e := wire.NewEncoder(64)
						for i := rng.Intn(3) + 1; i > 0; i-- {
							gen := replicaGen + uint64(rng.Intn(3)) + 1
							stale := replicaGen > 0 && rng.Intn(3) == 0
							if stale {
								gen = uint64(rng.Int63n(int64(replicaGen))) + 1
							}
							e.Raw(replicaID)
							e.Uint64(gen)
							n := rng.Intn(4)
							e.Int(n)
							for ; n > 0; n-- {
								k, v := keys[rng.Intn(len(keys))], fmt.Sprint(rng.Intn(5))
								e.String(k)
								e.String(v)
								if !stale {
									replica[k] = v
								}
							}
							if !stale {
								replicaGen = gen
							}
						}
						if err := engines[1].sessions.handleUpdateBatch(e.Bytes()); err != nil {
							t.Fatal(err)
						}
						got, gen := held(t, engines[1], replicaID)
						if gen != replicaGen {
							t.Fatalf("seed %d step %d: replica at generation %d, model %d", seed, step, gen, replicaGen)
						}
						sameState(t, "hand-fed replica", got, replica)
					}
					if m.mode == SessionsReplicated && len(model) > 0 {
						// Synchronous replication: after every reply both
						// copies hold the model, at one generation.
						p, pgen := held(t, engines[at], id)
						sameState(t, "serving copy", p, model)
						s, sgen := held(t, engines[1-at], id)
						sameState(t, "other copy", s, model)
						if sgen != pgen {
							t.Fatalf("seed %d step %d: copies at generations %d and %d", seed, step, pgen, sgen)
						}
					}
				}
			}
		})
	}
}

// TestConcurrentRequestsOneSession is a browser with parallel requests:
// four goroutines write one session through its primary while a third
// engine keeps fetching it from the secondary (Fig 3). The record's lock
// must make that race-clean, and a delta's generation must be its place on
// the wire, so that once the writers stop the secondary holds exactly what
// the primary does.
func TestConcurrentRequestsOneSession(t *testing.T) {
	engines := modelEngines(t, 3, SessionsReplicated)
	first := engines[0].Serve("/op", "", []byte("S n 0\nS item none"))
	c, err := DecodeCookie(first.Cookie)
	if err != nil || c.Secondary == "" {
		t.Fatalf("cookie %+v err=%v", c, err)
	}
	var secondary, third *Engine
	for _, e := range engines[1:] {
		if e.serverName == c.Secondary {
			secondary = e
		} else {
			third = e
		}
	}

	const workers, reqs = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < reqs; i++ {
				body := fmt.Sprintf("G n\nS n %d\nS item w%d-%d\nS w%d %d", i, w, i, w, i)
				if resp := engines[0].Serve("/op", first.Cookie, []byte(body)); resp.Status != 200 {
					t.Errorf("worker %d request %d: status %d %q", w, i, resp.Status, resp.Body)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	fetched := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				fetched <- n
				return
			default:
			}
			list, _, err := fetch(third, c.Secondary, c.ID)
			if err != nil || len(attrs.Map(list)) < 2 {
				t.Errorf("fetch %d: %v err=%v", n, list, err)
				fetched <- n
				return
			}
			n++
		}
	}()
	wg.Wait()
	close(stop)
	if n := <-fetched; n == 0 {
		t.Error("no fetch completed while the writers ran")
	}

	p, pgen := held(t, engines[0], c.ID)
	s, sgen := held(t, secondary, c.ID)
	if want := uint64(1 + workers*reqs); pgen != want || sgen != want {
		t.Fatalf("generations: primary %d, secondary %d, want %d (one per write request)", pgen, sgen, want)
	}
	if len(p) != 2+workers {
		t.Fatalf("primary holds %v", p)
	}
	sameState(t, "secondary", s, p)
	for w := 0; w < workers; w++ {
		if got := p[fmt.Sprintf("w%d", w)]; got != fmt.Sprint(reqs-1) {
			t.Fatalf("worker %d's last write lost: %q", w, got)
		}
	}
}

// TestConcurrentTopologyOneSession races a browser's parallel requests
// with each way a session's placement changes: a ring-epoch move (a server
// joins and the ring gives it the session's secondary), a promotion (Fig 2:
// the requests go to the secondary) and a failing ship (the secondary dies
// unnoticed). Every request writes, so the generation counts what was
// shipped: one delta per request and one whole record per change of
// placement, however many of the requests saw the change coming — and the
// secondary of the moment ends up with exactly the primary's record.
func TestConcurrentTopologyOneSession(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 5})
	t.Cleanup(f.Stop)
	engines := map[string]*Engine{}
	join := func(s *simtest.Server) {
		e := modelEngine(s, Config{})
		vs := partition.NewViews(partition.Config{Seed: 99})
		partition.Attach(vs, s.Member, ServiceName)
		e.SetPartitions(vs)
		engines[s.Name] = e
	}
	for _, s := range f.Servers[:4] {
		join(s)
	}
	f.Settle(3)

	// Sessions on server-1, then server-5 joins: take one whose ring
	// secondary is now the joiner.
	first := engines["server-1"]
	cookies := map[string]string{}
	for i := 0; i < 64; i++ {
		resp := first.Serve("/op", "", []byte("S n 0\nS item none"))
		c, err := DecodeCookie(resp.Cookie)
		if err != nil || c.Secondary == "" {
			t.Fatalf("cookie %+v err=%v", c, err)
		}
		cookies[c.ID] = resp.Cookie
	}
	join(f.Servers[4])
	f.Settle(3)
	id, cookie := "", ""
	for sid, ck := range cookies {
		if sec := first.sessions.secName(first.sessions.chooseSecondary(sid, "").sec()); sec == "server-5" && sid > id {
			id, cookie = sid, ck
		}
	}
	if id == "" {
		t.Fatal("the join moved no session's secondary to the joiner")
	}

	// burst sends parallel writing requests of the session to e, while the
	// admin scan reads every placement, and returns the settled cookie.
	const workers, reqs = 4, 150
	burst := func(e *Engine) Cookie {
		t.Helper()
		stop, scanned := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(scanned)
			for {
				select {
				case <-stop:
					return
				default:
					e.sessions.PartitionStats()
				}
			}
		}()
		var wg sync.WaitGroup
		start := make(chan struct{}) // so the first requests, which meet the change, collide
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; i < reqs; i++ {
					body := fmt.Sprintf("S n %d\nS w%d %s-%d", i, w, e.serverName, i)
					if resp := e.Serve("/op", cookie, []byte(body)); resp.Status != 200 {
						t.Errorf("%s: worker %d request %d: status %d %q", e.serverName, w, i, resp.Status, resp.Body)
						return
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		close(stop)
		<-scanned
		if resp := e.Serve("/op", cookie, []byte("G n")); resp.Cookie != "" {
			cookie = resp.Cookie
		}
		c, err := DecodeCookie(cookie)
		if err != nil || c.ID != id || c.Primary != e.serverName {
			t.Fatalf("%s: settled cookie %+v err=%v", e.serverName, c, err)
		}
		if again := e.Serve("/op", cookie, []byte("G n")); again.Cookie != "" {
			t.Fatalf("%s: cookie changed twice: %q then %q", e.serverName, cookie, again.Cookie)
		}
		return c
	}
	// converged checks the generation arithmetic and that the secondary
	// holds the primary's record.
	converged := func(what string, c Cookie, wantGen uint64) uint64 {
		t.Helper()
		p, pgen := held(t, engines[c.Primary], id)
		s, sgen := held(t, engines[c.Secondary], id)
		if pgen != wantGen || sgen != wantGen {
			t.Fatalf("%s: primary %s at generation %d, secondary %s at %d, want %d (a delta per request, one seed)", what, c.Primary, pgen, c.Secondary, sgen, wantGen)
		}
		sameState(t, what+": secondary "+c.Secondary, s, p)
		for w := 0; w < workers; w++ {
			if got, want := p[fmt.Sprintf("w%d", w)], fmt.Sprintf("%s-%d", c.Primary, reqs-1); got != want {
				t.Fatalf("%s: worker %d's last write is %q, want %q", what, w, got, want)
			}
		}
		return pgen
	}
	_, gen := held(t, first, id)

	c := burst(first)
	if c.Secondary != "server-5" {
		t.Fatalf("ring-epoch move: secondary %s, the ring says server-5", c.Secondary)
	}
	if moves := first.sessions.PartitionStats().RingMoves; moves != 1 {
		t.Fatalf("ring-epoch move: %d moves counted for one session's one move", moves)
	}
	gen = converged("ring-epoch move", c, gen+workers*reqs+1)

	c = burst(engines["server-5"])
	gen = converged("promotion", c, gen+workers*reqs+1)

	f.Crash(c.Secondary) // and the failure detector has not noticed
	dead := c.Secondary
	c = burst(engines["server-5"])
	if c.Secondary == dead || c.Secondary == "" {
		t.Fatalf("failing ship: secondary %q after %s died", c.Secondary, dead)
	}
	converged("failing ship", c, gen+workers*reqs+1)
}

// listOf encodes pairs — key, value, key, value — as an attribute list.
func listOf(pairs ...string) []byte {
	ps := make([]attrs.Pair, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		ps = append(ps, attrs.Pair{K: pairs[i], V: pairs[i+1]})
	}
	e := wire.NewEncoder(64)
	attrs.AppendPairs(e, ps)
	return e.Bytes()
}

// checkRecordInputs holds everything that becomes a record to one rule: any
// bytes give an error or a well-formed record (checkList), never a
// panic, and a record holds what a map model holds. base and delta are
// read as attribute lists — a record built from base, then delta written
// over it — and base also as each input a record is made from: a batch of
// delta entries, a fetch reply, a cookie.
func checkRecordInputs(t *testing.T, base, delta []byte) {
	model := map[string]string{}
	apply := func(list []byte) {
		d := wire.NewDecoder(list)
		for n := d.Int(); n > 0; n-- {
			k := d.String()
			model[k] = d.String()
		}
	}
	same := func(what, rec string) {
		t.Helper()
		m, err := checkList(rec)
		if err != nil {
			t.Fatalf("%s: record %q: %v", what, rec, err)
		}
		if len(m) != len(model) {
			t.Fatalf("%s: record %q holds %v, model %v", what, rec, m, model)
		}
		for k, v := range model {
			if got, ok := attrs.Lookup(rec, k); !ok || got != v || m[k] != v {
				t.Fatalf("%s: record %q holds %q=%q, model %q", what, rec, k, got, v)
			}
		}
	}
	if list, err := attrs.Read(wire.NewDecoder(base), false); err == nil {
		rec := attrs.Merge("", 0, nil, list)
		apply(list)
		same("new record", rec)
		if list, err := attrs.Read(wire.NewDecoder(delta), false); err == nil {
			before := maps.Clone(model)
			next := attrs.Merge(rec, 0, nil, list)
			apply(list)
			same("merged record", next)
			if maps.Equal(before, model) && next != rec {
				t.Fatalf("a delta that changes nothing made record %q of %q", next, rec)
			}
		}
	}

	// Any bytes as a batch of delta entries: an error, or records.
	sm := &SessionManager{}
	_ = sm.handleUpdateBatch(base)
	sm.each(func(st *sessState) {
		if _, err := checkList(st.list); err != nil || sm.shards[st.key[0]%stripes].get(st.key) != st {
			t.Fatalf("batch %x made record %q under %x: %v", base, st.list, st.key, err)
		}
	})
	// As a fetch reply, and as a cookie.
	if list, _, err := readFetchReply(base); err == nil {
		if _, err := checkList(attrs.Merge("", 0, nil, list)); err != nil {
			t.Fatalf("fetch reply %x: %v", base, err)
		}
	}
	if c, err := readCookie(base); err == nil {
		if !validID(c.ID) {
			t.Fatalf("cookie %x read with a %d-byte id", base, len(c.ID))
		}
		if _, err := checkList(attrs.Merge("", 0, nil, c.State)); err != nil {
			t.Fatalf("cookie %x: state %v", base, err)
		}
	}
}

// FuzzSessionRecord: seeds are lists in and out of key order, a key
// written twice, empty values, lying counts, and a batch of two entries.
func FuzzSessionRecord(f *testing.F) {
	batch := wire.NewEncoder(64)
	for gen := uint64(1); gen <= 2; gen++ {
		batch.Raw(testID)
		batch.Uint64(gen)
		batch.RawBytes(listOf("n", fmt.Sprint(gen), "item", "sku"))
	}
	lists := [][]byte{
		listOf(),
		listOf("item", "sku-0042", "n", "12"),
		listOf("n", "13", "item", "sku-7"),
		listOf("n", "1", "n", "2", "a", ""),
		listOf("", "", "k", "v"),
		{0x02},
		{0x01, 0x01, 'k'},
		{0x7f},
		batch.Bytes(),
	}
	for _, a := range lists {
		for _, b := range lists {
			f.Add(a, b)
		}
	}
	f.Fuzz(checkRecordInputs)
}
