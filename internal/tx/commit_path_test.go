package tx

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wls/internal/kv/kvtest"
	"wls/internal/vclock"
)

// gateResource parks the calls named in hold until release is closed, and
// announces each parked call on entered.
type gateResource struct {
	fakeResource
	hold    map[string]bool
	entered chan string
	release chan struct{}
}

func newGateResource(hold ...string) *gateResource {
	g := &gateResource{hold: map[string]bool{}, entered: make(chan string, 4), release: make(chan struct{})}
	for _, h := range hold {
		g.hold[h] = true
	}
	return g
}

func (g *gateResource) park(call string) {
	if g.hold[call] {
		g.entered <- call
		<-g.release
	}
}

func (g *gateResource) Prepare(id string) error { g.park("prepare"); return g.fakeResource.Prepare(id) }
func (g *gateResource) Commit(id string) error  { g.park("commit"); return g.fakeResource.Commit(id) }

func waitEntered(t *testing.T, g *gateResource, want string) {
	t.Helper()
	select {
	case got := <-g.entered:
		if got != want {
			t.Fatalf("resource entered %s, want %s", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("resource never entered %s: the phase is not overlapped", want)
	}
}

// TestPhasesOverlap: every prepare is in flight at once, and so is every
// commit — a two-phase commit waits for its resources together, not one
// after another. Three and five resources are past the Tx's two error slots.
func TestPhasesOverlap(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		t.Run(strconv.Itoa(n), func(t *testing.T) {
			m := newMgr()
			tr := m.Begin(0)
			rs := make([]*gateResource, n)
			for i := range rs {
				rs[i] = newGateResource("prepare", "commit")
				tr.Enlist(strconv.Itoa(i), rs[i])
			}
			done := make(chan error, 1)
			go func() { done <- tr.Commit() }()

			for _, phase := range []string{"prepare", "commit"} {
				for _, r := range rs { // none returns until all have been entered
					waitEntered(t, r, phase)
				}
				if phase == "commit" {
					select {
					case err := <-done:
						t.Fatalf("Commit returned %v with phase-2 commits still in flight", err)
					default:
					}
				}
				for _, r := range rs {
					r.release <- struct{}{}
				}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			for i, r := range rs {
				if p, c, _ := r.counts(); p != 1 || c != 1 {
					t.Fatalf("resource %d: prepared %d, committed %d; want 1/1", i, p, c)
				}
			}
		})
	}
}

// TestNoVoteWaitsForInflightPrepare: one resource votes no while the
// other's prepare is still in flight. Nothing is rolled back until that
// prepare has answered, and then both are.
func TestNoVoteWaitsForInflightPrepare(t *testing.T) {
	m := newMgr()
	slow := newGateResource("prepare")
	no := &fakeResource{voteNo: true}
	tr := m.Begin(0)
	tr.Enlist("slow", slow)
	tr.Enlist("no", no)
	done := make(chan error, 1)
	go func() { done <- tr.Commit() }()

	waitEntered(t, slow, "prepare")
	// The no vote is in (it does not block); the slow prepare is not.
	time.Sleep(20 * time.Millisecond)
	if _, _, rb := no.counts(); rb != 0 {
		t.Fatal("rolled back while a prepare was still in flight")
	}
	select {
	case err := <-done:
		t.Fatalf("Commit returned %v before the in-flight prepare answered", err)
	default:
	}
	close(slow.release)
	if err := <-done; !errors.Is(err, ErrAborted) {
		t.Fatalf("Commit = %v, want ErrAborted", err)
	}
	for name, r := range map[string]*fakeResource{"slow": &slow.fakeResource, "no": no} {
		if _, c, rb := r.counts(); c != 0 || rb != 1 {
			t.Fatalf("%s: committed=%d rolled=%d, want 0/1", name, c, rb)
		}
	}
	recs, _ := m.log.Records()
	if len(recs) != 0 {
		t.Fatalf("an aborted transaction logged %v", recs)
	}
}

// parkedLog parks every done record until release is closed.
type parkedLog struct {
	*MemLog
	parked  chan struct{}
	release chan struct{}
}

func (l *parkedLog) Append(r Record) error {
	if r.Kind == RecordDone {
		l.parked <- struct{}{}
		<-l.release
	}
	return l.MemLog.Append(r)
}

// TestDoneRecordOffReplyPath: Commit returns while the done record's
// append is still parked in the log; Drain waits for it; each done record
// is an Append of its own.
func TestDoneRecordOffReplyPath(t *testing.T) {
	log := &parkedLog{MemLog: NewMemLog(), parked: make(chan struct{}, 8), release: make(chan struct{})}
	m := NewManager("s1", vclock.NewVirtualAtZero(), log, nil)
	var ids []string
	for i := 0; i < 3; i++ {
		tr := m.Begin(0)
		tr.Enlist("a", &fakeResource{})
		tr.Enlist("b", &fakeResource{})
		if err := tr.Commit(); err != nil { // returns although no done record can land
			t.Fatal(err)
		}
		ids = append(ids, tr.ID())
	}
	<-log.parked
	recs, _ := log.Records()
	if len(recs) != 3 {
		t.Fatalf("log holds %v, want the three decisions and no done record yet", recs)
	}
	drained := make(chan struct{})
	go func() { m.Drain(); close(drained) }()
	select {
	case <-drained:
		t.Fatal("Drain returned with done records still queued")
	case <-time.After(20 * time.Millisecond):
	}
	close(log.release)
	<-drained
	recs, _ = log.Records()
	var done []string
	for _, r := range recs {
		if r.Kind == RecordDone {
			done = append(done, r.TxID)
		}
	}
	if len(done) != 3 || done[0] != ids[0] || done[1] != ids[1] || done[2] != ids[2] {
		t.Fatalf("done records %v, want one per transaction in commit order %v", done, ids)
	}
}

// TestNoDoneRecordWhileInDoubt: a resource that fails phase two keeps the
// transaction's done record out of the log.
func TestNoDoneRecordWhileInDoubt(t *testing.T) {
	m := newMgr()
	tr := m.Begin(0)
	tr.Enlist("a", &fakeResource{})
	tr.Enlist("b", &fakeResource{failOnce: true})
	if err := tr.Commit(); err == nil || errors.Is(err, ErrAborted) {
		t.Fatalf("Commit = %v, want the in-doubt error", err)
	}
	m.Drain()
	recs, _ := m.log.Records()
	if len(recs) != 1 || recs[0].Kind != RecordCommit {
		t.Fatalf("log = %v, want only the decision", recs)
	}
}

// failingRecovery fails its first n commits.
type failingRecovery struct {
	fakeResource
	mu2   sync.Mutex
	fails int
}

func (r *failingRecovery) Commit(id string) error {
	r.mu2.Lock()
	defer r.mu2.Unlock()
	if r.fails > 0 {
		r.fails--
		return errors.New("resource still down")
	}
	return r.fakeResource.Commit(id)
}

// TestRecoverKeepsFailedTransactionInDoubt is the regression test for
// Recover appending the done record whatever the resources answered: a
// resource that fails its first recovery commit must be driven again by
// the next Recover.
func TestRecoverKeepsFailedTransactionInDoubt(t *testing.T) {
	log := NewMemLog()
	log.Append(Record{TxID: "tx-1", Kind: RecordCommit})
	log.Append(Record{TxID: "tx-2", Kind: RecordCommit})
	log.Append(Record{TxID: "tx-2", Kind: RecordDone})
	m := NewManager("s1", vclock.NewVirtualAtZero(), log, nil)
	up, down := &fakeResource{}, &failingRecovery{fails: 1}
	resources := map[string]Resource{"up": up, "down": down}

	done, err := m.Recover(resources)
	var left *InDoubtError
	if !errors.As(err, &left) || len(left.IDs) != 1 || left.IDs[0] != "tx-1" || len(done) != 0 {
		t.Fatalf("first Recover = %v, %v; want tx-1 reported still in doubt", done, err)
	}
	if recs, _ := log.Records(); len(recs) != 3 {
		t.Fatalf("first Recover wrote a done record for a transaction a resource refused: %v", recs)
	}
	done, err = m.Recover(resources)
	if err != nil || len(done) != 1 || done[0] != "tx-1" {
		t.Fatalf("second Recover = %v, %v; want tx-1 completed", done, err)
	}
	if _, c, _ := down.counts(); c != 1 {
		t.Fatalf("the failed resource committed %d times, want 1", c)
	}
	if done, err = m.Recover(resources); err != nil || len(done) != 0 {
		t.Fatalf("third Recover = %v, %v; want nothing left", done, err)
	}
}

// TestFileLogCutsTornTailOnOpen: a crash mid-append leaves half a frame at
// the end of the log. Records appended after the restart must follow the
// last whole record, not the fragment — appended behind it they would be
// swallowed by its length prefix and read back as corruption.
func TestFileLogCutsTornTailOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tlog")
	l, err := OpenFileLog(path, true)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Record{TxID: "tx-1", Kind: RecordCommit})
	l.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(whole[:len(whole)/2]) // the torn second append
	f.Close()

	l, err = OpenFileLog(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(Record{TxID: "tx-1", Kind: RecordDone}); err != nil {
		t.Fatal(err)
	}
	recs, err := l.Records()
	if err != nil || len(recs) != 2 || recs[1] != (Record{TxID: "tx-1", Kind: RecordDone}) {
		t.Fatalf("after restart the log reads %v, %v; want the whole record and the new one", recs, err)
	}
}

// TestFileLogSyncChoreography pins when a synced log flushes: opening a
// log syncs nothing; the first record of every open syncs the file and
// then its directory, which makes the file's name durable even when an
// earlier open created it and never flushed; later records sync the file
// only.
func TestFileLogSyncChoreography(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tlog")
	rec := kvtest.NewCrashFS(nil, -1)
	syncs := func(n int) []string {
		var out []string
		for _, op := range rec.Ops()[n:] {
			if strings.HasPrefix(op, "sync") {
				out = append(out, op)
			}
		}
		return out
	}
	append1 := func(l *FileLog, want ...string) {
		t.Helper()
		n := len(rec.Ops())
		if err := l.Append(Record{TxID: "tx-1", Kind: RecordCommit}); err != nil {
			t.Fatal(err)
		}
		if got := syncs(n); !slices.Equal(got, want) {
			t.Fatalf("an append synced %v, want %v", got, want)
		}
	}
	l, err := OpenFileLogFS(rec, path, true)
	if err != nil {
		t.Fatal(err)
	}
	if s := syncs(0); len(s) != 0 {
		t.Fatalf("opening a fresh log synced %v", s)
	}
	append1(l, "sync "+path, "syncdir "+path)
	append1(l, "sync "+path)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = OpenFileLogFS(rec, path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	append1(l, "sync "+path, "syncdir "+path)
	append1(l, "sync "+path)
}
