//go:build !race

package servlet

// Allocation pins (`make gates`): the race runtime drops sync.Pool items
// and allocates on its own, so these tests build only without it.

import (
	"encoding/base64"
	"fmt"
	"strconv"
	"testing"

	"wls/internal/attrs"
	"wls/internal/simtest"
	"wls/internal/wire"
)

// TestGateReplicaUpdateAllocsPerChangedValue pins the secondary's steady state:
// applying a delta to keys the replica already holds allocates exactly one
// string, the merged record, however many of its values changed, and
// nothing at all when the values are unchanged.
func TestGateReplicaUpdateAllocsPerChangedValue(t *testing.T) {
	const replicaID = "0123456789abcdef"
	sm := &SessionManager{}
	var gen uint64
	delta := func(n, item string) []byte {
		gen++
		e := wire.NewEncoder(64)
		e.Raw(replicaID)
		e.Uint64(gen)
		e.Int(2)
		e.String("n")
		e.String(n)
		e.String("item")
		e.String(item)
		return e.Bytes()
	}
	if err := sm.handleUpdateBatch(delta("0", "sku-0")); err != nil {
		t.Fatal(err)
	}

	const runs = 200
	deltas := make([][]byte, 0, runs+1)
	for i := 1; i <= runs+1; i++ {
		deltas = append(deltas, delta(strconv.Itoa(1000+i), "sku-"+strconv.Itoa(1000+i)))
	}
	i := 0
	changed := testing.AllocsPerRun(runs, func() {
		if err := sm.handleUpdateBatch(deltas[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if changed != 1 {
		t.Fatalf("update of 2 existing keys with new values: %.1f allocs, want 1 (the merged record)", changed)
	}
	if got, _ := attrs.Lookup(sm.get([]byte(replicaID)).list, "n"); got != strconv.Itoa(1000+runs+1) {
		t.Fatalf("replica holds n=%q after the updates", got)
	}

	same := make([][]byte, 0, runs+1)
	for i := 0; i <= runs; i++ {
		same = append(same, delta("7", "sku-7"))
	}
	if err := sm.handleUpdateBatch(delta("7", "sku-7")); err != nil {
		t.Fatal(err)
	}
	i = 0
	unchanged := testing.AllocsPerRun(runs, func() {
		if err := sm.handleUpdateBatch(same[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if unchanged != 0 {
		t.Fatalf("update with unchanged values: %.1f allocs, want 0", unchanged)
	}

	// A session's first delta: its sessState and its record, nothing else
	// (their shard is sized, so no growth is counted: every id below starts
	// with '0').
	sm.shards['0'%stripes].resize(2 * runs)
	first := make([][]byte, 0, runs+1)
	for i := 0; i <= runs; i++ {
		e := wire.NewEncoder(64)
		e.Raw(fmt.Sprintf("%016d", i))
		e.Uint64(1)
		e.RawBytes(listOf("n", "1", "item", "sku-1"))
		first = append(first, e.Bytes())
	}
	i = 0
	if n := testing.AllocsPerRun(runs, func() {
		if err := sm.handleUpdateBatch(first[i]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 2 {
		t.Fatalf("first delta of a session: %.1f allocs, want 2 (sessState and record)", n)
	}
}

// TestGatePrimaryWriteAllocs pins the primary's side: a request's writes land
// as one new attribute list when a value changes and none when every value
// written is the one held, and reading an attribute allocates nothing.
func TestGatePrimaryWriteAllocs(t *testing.T) {
	st := newSessState("0123456789abcdef", attrs.Merge("", 0, nil, listOf("item", "sku-0", "n", "0")), 0)
	values := make([]string, 202)
	for i := range values {
		values[i] = strconv.Itoa(i)
	}
	s := acquireSession(st)
	defer releaseSession(s)
	write := func(v string) {
		s.Set("n", v)
		s.Set("item", "sku-0")
		if s.Get("n") != v {
			t.Fatalf("Get after Set reads %q", s.Get("n"))
		}
		s.land()
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() { write(values[i]); i++ }); n != 1 {
		t.Fatalf("a write that changes a value: %.1f allocs, want 1 (the record)", n)
	}
	if n := testing.AllocsPerRun(200, func() { write("7") }); n != 0 {
		t.Fatalf("a write of the values held: %.1f allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = s.Get("item") + s.Get("n") }); n != 0 {
		t.Fatalf("reads: %.1f allocs, want 0", n)
	}
	if got := s.Get("n"); got != "7" || s.Len() != 2 {
		t.Fatalf("record holds n=%q in %d attributes", got, s.Len())
	}
}

// TestGatePlacementAllocFree pins secondary placement at zero allocations, with
// and without a secondary to avoid: it runs for every new session, every
// promotion, every failed ship and every ring-epoch re-check.
func TestGatePlacementAllocFree(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 4,
		ReplicationGroups: []string{"gA", "gB"}, PreferredSecondaryGroups: []string{"gB"}})
	t.Cleanup(f.Stop)
	var engines []*Engine
	for _, s := range f.Servers {
		engines = append(engines, NewEngine(s.Registry, Config{}))
	}
	f.Settle(2)
	sm := engines[0].sessions
	// server-2 and server-4 are the preferred group gB; avoiding server-2
	// sends the walk past its best candidate.
	for _, avoid := range []string{"", "server-2"} {
		var p placement
		if a := testing.AllocsPerRun(200, func() {
			p = sm.chooseSecondary("0123456789abcdef", avoid)
		}); a != 0 {
			t.Errorf("avoid %q: chooseSecondary allocates %.1f/op, want 0", avoid, a)
		}
		if sec := sm.secName(p.sec()); sec != "server-2" && sec != "server-4" || sec == avoid {
			t.Errorf("avoid %q: picked %q, want the other gB server", avoid, sec)
		}
	}
}

// The steady-state field — a replicated session's, at its primary — is read
// in place, with no allocation.
func TestGateForwardedSessionReadsInPlace(t *testing.T) {
	var buf CookieBuf
	c, err := ParseCookie(encodeCookie(testID, "server-1", "server-2", attrs.Empty), &buf)
	if err != nil {
		t.Fatal(err)
	}
	e := wire.NewEncoder(64)
	appendSession(e, &c, "server-1")
	if len(e.Bytes()) != 1+16+9 {
		t.Fatalf("field is %d bytes, want flag 1, id 16, secondary 9", len(e.Bytes()))
	}
	self := []byte("server-1")
	if n := testing.AllocsPerRun(100, func() {
		_, _ = readSession(wire.NewDecoder(e.Bytes()), self)
	}); n != 0 {
		t.Fatalf("reading the field allocates %.0f", n)
	}
}

// TestGateParseCookie: an accepted cookie that is state-less and fits the
// array parses with no allocation, from the string and from the bytes.
func TestGateParseCookie(t *testing.T) {
	for _, s := range cookieCases() {
		checkParseAllocs(t, s)
	}
}

// FuzzParseCookie: testdata/fuzz/FuzzParseCookie holds the seed corpus (the
// same shapes as cookieCases, as files the fuzzer can start from). Every
// input gets checkParse, and one that parses gets the allocation check.
// TestParseCookieMatchesGeneralDecoder runs checkParse under -race.
func FuzzParseCookie(f *testing.F) {
	for _, s := range cookieCases() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkParse(t, s)
		checkParseAllocs(t, s)
	})
}

// checkParseAllocs: s, if it is an accepted cookie that is state-less and
// fits the array, parses with no allocation from the string and the bytes.
func checkParseAllocs(t *testing.T, s string) {
	t.Helper()
	want, err := DecodeCookie(s)
	if err != nil || want.State != nil || base64.RawURLEncoding.DecodedLen(len(s)) > len(CookieBuf{}) {
		return
	}
	var buf CookieBuf
	b := []byte(s)
	if n := testing.AllocsPerRun(10, func() { _, _ = ParseCookie(s, &buf) }); n != 0 {
		t.Fatalf("%q (string): %.0f allocations for a state-less cookie", s, n)
	}
	if n := testing.AllocsPerRun(10, func() { _, _ = ParseCookie(b, &buf) }); n != 0 {
		t.Fatalf("%q (bytes): %.0f allocations for a state-less cookie", s, n)
	}
}
