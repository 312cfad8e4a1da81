package tx_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"wls/internal/rmi"
	"wls/internal/simtest"
	"wls/internal/tx"
)

// ledger is a tiny transactional resource: staged writes become visible at
// commit.
type ledger struct {
	mu      sync.Mutex
	staged  map[string]int // by txID
	balance int
	voteNo  bool
	done    map[string]bool
}

func newLedger() *ledger {
	return &ledger{staged: map[string]int{}, done: map[string]bool{}}
}

func (l *ledger) Add(txID string, amount int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.staged[txID] += amount
}

func (l *ledger) Prepare(txID string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.voteNo {
		return errors.New("ledger refuses")
	}
	return nil
}

func (l *ledger) Commit(txID string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done[txID] {
		return nil
	}
	l.done[txID] = true
	l.balance += l.staged[txID]
	delete(l.staged, txID)
	return nil
}

func (l *ledger) Rollback(txID string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.staged, txID)
	return nil
}

func (l *ledger) Balance() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.balance
}

// distributedFixture: coordinator on server-1, participant branch on
// server-2 with a local ledger.
func distributedFixture(t *testing.T) (*simtest.Fixture, *tx.Manager, *tx.Manager, *ledger, *ledger) {
	t.Helper()
	f := simtest.New(simtest.Options{Servers: 2})
	t.Cleanup(f.Stop)
	mCoord := tx.NewManager("server-1", f.Clock, nil, f.Servers[0].Metrics)
	mPart := tx.NewManager("server-2", f.Clock, nil, f.Servers[1].Metrics)
	f.Servers[0].Registry.Register(mCoord.Service())
	f.Servers[1].Registry.Register(mPart.Service())
	f.Settle(2)
	return f, mCoord, mPart, newLedger(), newLedger()
}

func TestDistributedCommitAcrossServers(t *testing.T) {
	f, mCoord, mPart, localLedger, remoteLedger := distributedFixture(t)

	txn := mCoord.Begin(0)
	txn.Enlist("local-db", localLedger)
	localLedger.Add(txn.ID(), 10)

	// The participant enlists its ledger in a branch for the foreign txID
	// (what a server does whose work joins a foreign transaction), and the
	// coordinator enlists the remote branch.
	mPart.Branch(txn.ID()).Enlist("remote-db", remoteLedger)
	remoteLedger.Add(txn.ID(), 32)
	txn.Enlist("branch@server-2", tx.NewRemoteBranch(f.Servers[0].Endpoint, f.Servers[1].Endpoint.Addr()))
	txn.TouchServer("server-2")

	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if localLedger.Balance() != 10 || remoteLedger.Balance() != 32 {
		t.Fatalf("balances = %d / %d", localLedger.Balance(), remoteLedger.Balance())
	}
	if !contains(txn.Servers(), "server-2") {
		t.Fatal("tx did not record server-2")
	}
}

func TestDistributedAbortWhenRemoteVotesNo(t *testing.T) {
	f, mCoord, mPart, localLedger, remoteLedger := distributedFixture(t)
	remoteLedger.voteNo = true

	txn := mCoord.Begin(0)
	txn.Enlist("local-db", localLedger)
	localLedger.Add(txn.ID(), 10)
	mPart.Branch(txn.ID()).Enlist("remote-db", remoteLedger)
	remoteLedger.Add(txn.ID(), 32)
	txn.Enlist("branch@server-2", tx.NewRemoteBranch(f.Servers[0].Endpoint, f.Servers[1].Endpoint.Addr()))

	if err := txn.Commit(); !errors.Is(err, tx.ErrAborted) {
		t.Fatalf("want ErrAborted, got %v", err)
	}
	if localLedger.Balance() != 0 || remoteLedger.Balance() != 0 {
		t.Fatalf("atomicity violated: %d / %d", localLedger.Balance(), remoteLedger.Balance())
	}
	if mPart.HasBranch(txn.ID()) {
		t.Fatal("participant branch not cleaned up after rollback")
	}
}

func TestDistributedAbortWhenParticipantUnreachable(t *testing.T) {
	f, mCoord, mPart, localLedger, remoteLedger := distributedFixture(t)

	txn := mCoord.Begin(0)
	txn.Enlist("local-db", localLedger)
	localLedger.Add(txn.ID(), 10)
	mPart.Branch(txn.ID()).Enlist("remote-db", remoteLedger)
	txn.Enlist("branch@server-2", tx.NewRemoteBranch(f.Servers[0].Endpoint, f.Servers[1].Endpoint.Addr()))

	f.Crash("server-2")
	if err := txn.Commit(); !errors.Is(err, tx.ErrAborted) {
		t.Fatalf("want ErrAborted when participant is down, got %v", err)
	}
	if localLedger.Balance() != 0 {
		t.Fatalf("local effects leaked: %d", localLedger.Balance())
	}
}

func TestBranchPrepareFailureIdentifiesResource(t *testing.T) {
	_, _, mPart, _, remoteLedger := distributedFixture(t)
	remoteLedger.voteNo = true
	b := mPart.Branch("t-1")
	b.Enlist("remote-db", remoteLedger)
	err := b.Prepare("t-1")
	if err == nil {
		t.Fatal("want prepare error")
	}
}

func TestRemoteBranchAgainstMissingService(t *testing.T) {
	f := simtest.New(simtest.Options{Servers: 2})
	defer f.Stop()
	f.Settle(2)
	// server-2 has no wls.tx service registered.
	rb := tx.NewRemoteBranch(f.Servers[0].Endpoint, f.Servers[1].Endpoint.Addr())
	if err := rb.Prepare("t-9"); err == nil {
		t.Fatal("prepare against missing service should fail (vote no)")
	}
}

func TestTxServiceCommitIsIdempotent(t *testing.T) {
	f, _, mPart, _, remoteLedger := distributedFixture(t)
	id := "ext-1"
	mPart.Branch(id).Enlist("remote-db", remoteLedger)
	remoteLedger.Add(id, 5)
	rb := tx.NewRemoteBranch(f.Servers[0].Endpoint, f.Servers[1].Endpoint.Addr())
	if err := rb.Commit(id); err != nil {
		t.Fatal(err)
	}
	if err := rb.Commit(id); err != nil {
		t.Fatalf("second commit: %v", err)
	}
	if remoteLedger.Balance() != 5 {
		t.Fatalf("balance = %d, want 5 (idempotent commit)", remoteLedger.Balance())
	}
}

func TestAffinityIntegration(t *testing.T) {
	// The tx layer's Servers() feeds rmi.WithAffinity: verify the wiring
	// compiles into the expected routing behaviour.
	f, mCoord, _, _, _ := distributedFixture(t)
	for _, s := range f.Servers {
		name := s.Name
		s.Registry.Register(&rmi.Service{
			Name: "Work",
			Methods: map[string]rmi.MethodSpec{
				"do": {Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
					return []byte(name), nil
				}},
			},
		})
	}
	f.Settle(2)

	txn := mCoord.Begin(0)
	txn.TouchServer("server-2")
	ctx := rmi.WithAffinity(context.Background(), txn.Servers()...)
	stub := rmi.NewStub("Work", f.Servers[0].Endpoint,
		rmi.MemberView{Member: f.Servers[0].Member},
		rmi.WithPolicy(rmi.TxAffinity{Next: rmi.NewRoundRobin()}))
	for i := 0; i < 8; i++ {
		res, err := stub.Invoke(ctx, "do", nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.ServedBy != "server-1" && res.ServedBy != "server-2" {
			t.Fatalf("tx spread to %s", res.ServedBy)
		}
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}
