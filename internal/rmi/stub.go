package rmi

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"wls/internal/cluster"
	"wls/internal/trace"
	"wls/internal/vclock"
	"wls/internal/wire"
)

// ---------------------------------------------------------------------------
// Load-balancing policies

// Policy orders the candidate servers for one invocation. The stub tries
// candidates in the returned order when failing over. Policies must be safe
// for concurrent use.
type Policy interface {
	Order(ctx context.Context, localName string, cands []cluster.MemberInfo) []cluster.MemberInfo
}

// RoundRobin rotates through candidates; the paper notes this simple scheme
// is "particularly effective" for short-running transactional requests
// (§2.1).
type RoundRobin struct{ n atomic.Uint64 }

// NewRoundRobin returns a fresh round-robin policy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Order implements Policy.
func (p *RoundRobin) Order(_ context.Context, _ string, cands []cluster.MemberInfo) []cluster.MemberInfo {
	if len(cands) == 0 {
		return nil
	}
	return rotate(cands, int(p.n.Add(1)-1)%len(cands))
}

// rotate returns cands in ring order from index start.
func rotate(cands []cluster.MemberInfo, start int) []cluster.MemberInfo {
	out := make([]cluster.MemberInfo, 0, len(cands))
	return append(append(out, cands[start:]...), cands[:start]...)
}

// Random picks a uniformly random starting candidate.
type Random struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewRandom returns a Random policy with the given seed.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Order implements Policy.
func (p *Random) Order(_ context.Context, _ string, cands []cluster.MemberInfo) []cluster.MemberInfo {
	if len(cands) == 0 {
		return nil
	}
	p.mu.Lock()
	start := p.rng.Intn(len(cands))
	p.mu.Unlock()
	return rotate(cands, start)
}

// WeightBased orders candidates by configured weight with weighted random
// selection of the first target.
type WeightBased struct {
	mu      sync.Mutex
	rng     *rand.Rand
	weights map[string]int // by server name; default weight 1
}

// NewWeightBased returns a weight-based policy.
func NewWeightBased(seed int64, weights map[string]int) *WeightBased {
	w := make(map[string]int, len(weights))
	for k, v := range weights {
		w[k] = v
	}
	return &WeightBased{rng: rand.New(rand.NewSource(seed)), weights: w}
}

func (p *WeightBased) weight(name string) int {
	if w, ok := p.weights[name]; ok && w > 0 {
		return w
	}
	return 1
}

// Order implements Policy.
func (p *WeightBased) Order(_ context.Context, _ string, cands []cluster.MemberInfo) []cluster.MemberInfo {
	if len(cands) == 0 {
		return nil
	}
	total := 0
	for _, c := range cands {
		total += p.weight(c.Name)
	}
	p.mu.Lock()
	pick := p.rng.Intn(total)
	p.mu.Unlock()
	start := 0
	for i, c := range cands {
		pick -= p.weight(c.Name)
		if pick < 0 {
			start = i
			break
		}
	}
	return rotate(cands, start)
}

// LocalPreference wraps another policy and, for internal clients, always
// prefers an instance on the local server "in order to minimize the number
// of servers involved in processing a request" (§3.1).
type LocalPreference struct{ Next Policy }

// Order implements Policy.
func (p LocalPreference) Order(ctx context.Context, localName string, cands []cluster.MemberInfo) []cluster.MemberInfo {
	ordered := p.Next.Order(ctx, localName, cands)
	if localName == "" {
		return ordered
	}
	for i, c := range ordered {
		if c.Name == localName {
			if i != 0 {
				reordered := make([]cluster.MemberInfo, 0, len(ordered))
				reordered = append(reordered, c)
				reordered = append(reordered, ordered[:i]...)
				reordered = append(reordered, ordered[i+1:]...)
				return reordered
			}
			return ordered
		}
	}
	return ordered
}

// affinityKey carries the set of servers already participating in the
// caller's transaction.
type affinityKey struct{}

// WithAffinity returns a context that prefers the given servers, used to
// "limit the spread of the transaction" (§3.1): the transaction layer adds
// every server it has enlisted.
func WithAffinity(ctx context.Context, servers ...string) context.Context {
	return context.WithValue(ctx, affinityKey{}, servers)
}

// AffinityFrom extracts the preferred-server list from ctx.
func AffinityFrom(ctx context.Context) []string {
	if v, ok := ctx.Value(affinityKey{}).([]string); ok {
		return v
	}
	return nil
}

// TxAffinity wraps another policy and prefers servers already involved in
// the in-progress transaction (from the context), after any local
// preference the wrapped policy applies.
type TxAffinity struct{ Next Policy }

// Order implements Policy.
func (p TxAffinity) Order(ctx context.Context, localName string, cands []cluster.MemberInfo) []cluster.MemberInfo {
	ordered := p.Next.Order(ctx, localName, cands)
	aff := AffinityFrom(ctx)
	if len(aff) == 0 {
		return ordered
	}
	inTx := make(map[string]bool, len(aff))
	for _, s := range aff {
		inTx[s] = true
	}
	preferred := make([]cluster.MemberInfo, 0, len(ordered))
	rest := make([]cluster.MemberInfo, 0, len(ordered))
	for _, c := range ordered {
		// Local server stays first even when not in the transaction yet;
		// invoking locally never spreads the transaction further.
		if c.Name == localName || inTx[c.Name] {
			preferred = append(preferred, c)
		} else {
			rest = append(rest, c)
		}
	}
	return append(preferred, rest...)
}

// DefaultPolicy is what WebLogic ships: round robin with local preference
// and transaction affinity (§3.1).
func DefaultPolicy() Policy {
	return TxAffinity{Next: LocalPreference{Next: NewRoundRobin()}}
}

// ---------------------------------------------------------------------------
// Stub

// Stub is the client-side proxy for a clustered service.
type Stub struct {
	service string
	node    Node
	view    View
	policy  Policy
	// res is the shared overload protection (nil: retry instantly and
	// endlessly within the candidate list, the pre-resilience behaviour).
	res *Resilience
	// idempotent lists methods declared idempotent in the deployment
	// descriptor mirrored into the stub.
	idempotent map[string]bool
}

// StubOption configures a Stub.
type StubOption func(*Stub)

// WithPolicy overrides the load-balancing policy (default DefaultPolicy).
func WithPolicy(p Policy) StubOption { return func(s *Stub) { s.policy = p } }

// WithResilience attaches shared client-side overload protection: failover
// retries draw from r's token bucket, wait out its jittered backoff, and
// skip servers whose circuit breaker is open. NewStub additionally wraps
// whatever policy is configured in a BreakerPolicy so open servers sort
// last (regardless of option order).
func WithResilience(r *Resilience) StubOption {
	return func(s *Stub) { s.res = r }
}

// WithIdempotent declares methods that may be retried after possible side
// effects.
func WithIdempotent(methods ...string) StubOption {
	return func(s *Stub) {
		for _, m := range methods {
			s.idempotent[m] = true
		}
	}
}

// NewStub creates a stub for service using the given node and view.
func NewStub(service string, node Node, view View, opts ...StubOption) *Stub {
	s := &Stub{
		service:    service,
		node:       node,
		view:       view,
		policy:     DefaultPolicy(),
		idempotent: make(map[string]bool),
	}
	for _, o := range opts {
		o(s)
	}
	if s.res != nil {
		s.policy = BreakerPolicy{Next: s.policy, R: s.res}
	}
	return s
}

// Result is a successful invocation outcome, returned by value so that a
// call allocates nothing for it.
type Result struct {
	// Body is the method's encoded return payload. It is the caller's: the
	// node copied it out of the frame it read (see Node.Call), and nothing
	// pools or reuses it.
	Body []byte
	// ServedBy is the name of the server that executed the request — the
	// candidate the stub called, which the reply does not repeat; the
	// transaction layer records it to build affinity.
	ServedBy string
}

// Invoke calls service.method with load balancing and failover.
func (s *Stub) Invoke(ctx context.Context, method string, args []byte) (Result, error) {
	return s.invoke(ctx, nil, method, args, nil)
}

// InvokeVia calls service.method on the members of first, in order (each
// named once), then on the view's other candidates in the policy's order;
// between two attempts the stub's failover rule applies as for Invoke. It
// is how a router or a stateful handle, which knows where a call belongs
// (a session's primary and secondary), hands the call to the one failover
// rule. A member of first is attempted even while its breaker refuses it —
// moving its calls elsewhere would promote a secondary of a live primary —
// but its outcome is recorded like any other. args writes the method's
// arguments for the member called, once per attempt.
func (s *Stub) InvokeVia(ctx context.Context, first []cluster.MemberInfo, method string, args func(e *wire.Encoder, callee string)) (Result, error) {
	return s.invoke(ctx, first, method, nil, args)
}

// order is the members one invocation may try: first, as its caller named
// them, then the view's other candidates in the policy's order. It is
// built past first only when first is used up, so a call its first target
// serves consults no policy.
type order struct {
	first, all []cluster.MemberInfo // all is first until built
	built      bool
}

// at returns the i-th member to try, if there is one.
func (o *order) at(ctx context.Context, s *Stub, i int) (cluster.MemberInfo, bool) {
	if i == len(o.all) && !o.built {
		o.built = true
		o.all = s.candidates(ctx, o.first)
	}
	if i >= len(o.all) {
		return cluster.MemberInfo{}, false
	}
	return o.all[i], true
}

// last reports whether the i-th member is the last to try.
func (o *order) last(ctx context.Context, s *Stub, i int) bool {
	_, more := o.at(ctx, s, i+1)
	return !more
}

// candidates is first, then the view's candidates in the policy's order
// less the members first names. With a single candidate there is nothing
// to order: every policy is a permutation, so the policy chain (and its
// slice allocations) is skipped. The candidate slice may be shared with
// the view's cache — it is only read here, never mutated.
func (s *Stub) candidates(ctx context.Context, first []cluster.MemberInfo) []cluster.MemberInfo {
	cands := s.view.Candidates(s.service)
	if len(cands) > 1 {
		cands = s.policy.Order(ctx, s.view.LocalName(), cands)
	}
	if len(first) == 0 {
		return cands
	}
	all := append(make([]cluster.MemberInfo, 0, len(first)+len(cands)), first...)
	for _, c := range cands {
		if !named(first, c.Name) {
			all = append(all, c)
		}
	}
	return all
}

// named reports whether ms lists the member called name.
func named(ms []cluster.MemberInfo, name string) bool {
	for _, m := range ms {
		if m.Name == name {
			return true
		}
	}
	return false
}

// invoke makes one invocation: every attempt sends method and its
// arguments — args, or what argsFor writes for the member called when it
// is not nil.
func (s *Stub) invoke(ctx context.Context, first []cluster.MemberInfo, method string, args []byte, argsFor func(e *wire.Encoder, callee string)) (Result, error) {
	o := order{first: first, all: first}
	if _, ok := o.at(ctx, s, 0); !ok {
		return Result{}, fmt.Errorf("%w: %s", ErrNoServers, s.service)
	}
	budget, hasBudget := BudgetFrom(ctx)
	if hasBudget && budget.Expired() {
		return Result{}, fmt.Errorf("%w: before %s.%s", ErrBudgetExceeded, s.service, method)
	}
	// One client span for the logical invocation, one child per attempt:
	// failover retries become distinct, inspectable children. The span name
	// is concatenated only inside the traced branch so untraced calls stay
	// allocation-free.
	var span *trace.Span
	if parent := trace.FromContext(ctx); parent != nil {
		ctx, span = parent.NewChild(ctx, "rmi.call "+s.service+"."+method, trace.KindClient)
		defer span.Finish()
	}
	var lastErr error
	attempts := 0
	var i int
	for ; ; i++ {
		cand, ok := o.at(ctx, s, i)
		if !ok {
			break
		}
		// A cancelled caller must not keep dialing the remaining
		// candidates: the work it wanted is moot.
		if err := ctx.Err(); err != nil {
			err = fmt.Errorf("rmi: %s.%s abandoned before attempt %d: %w", s.service, method, i+1, err)
			span.SetError(err)
			return Result{}, errJoin(err, lastErr)
		}
		if hasBudget && budget.Expired() {
			err := fmt.Errorf("%w: at %s.%s attempt %d", ErrBudgetExceeded, s.service, method, i+1)
			span.SetError(err)
			return Result{}, errJoin(err, lastErr)
		}
		if s.res != nil {
			// Breaker gate, for the members the caller did not name. If
			// every candidate is refused (all breakers open, none cooled
			// down), the last candidate is attempted anyway: total lockout
			// would otherwise be unrecoverable for callers that arrive
			// between cooldowns.
			if !s.res.Allow(cand.Name) && i >= len(first) && !(attempts == 0 && o.last(ctx, s, i)) {
				continue
			}
			if attempts > 0 {
				// Failover retry: pay a token and back off before re-dialing.
				if !s.res.SpendRetry() {
					err := fmt.Errorf("rmi: retry budget exhausted for %s.%s: %w", s.service, method, lastErr)
					span.SetError(err)
					return Result{}, err
				}
				d := s.res.backoff(attempts)
				if hasBudget {
					if rem := budget.Remaining(); d > rem {
						d = rem
					}
				}
				if err := sleepCtx(ctx, s.res.clock, d); err != nil {
					span.SetError(err)
					return Result{}, errJoin(err, lastErr)
				}
				if hasBudget && budget.Expired() {
					err := fmt.Errorf("%w: during backoff before %s.%s attempt %d", ErrBudgetExceeded, s.service, method, i+1)
					span.SetError(err)
					return Result{}, errJoin(err, lastErr)
				}
			}
			s.res.markAttempt(cand.Name)
		}
		attempts++
		attemptCtx := ctx
		var att *trace.Span
		if span != nil {
			attemptCtx, att = span.NewChild(ctx, "rmi.attempt", trace.KindClient)
			att.Annotate("target", cand.Name)
			att.AnnotateInt("attempt", attempts)
			if s.res != nil {
				att.Annotate("breaker", s.res.State(cand.Name).String())
			}
		}
		res, err := s.callOne(attemptCtx, cand.Name, cand.Addr, method, args, argsFor)
		if err == nil {
			if s.res != nil {
				s.res.recordSuccess(cand.Name)
			}
			if att != nil {
				att.Annotate("final", "true")
				att.Finish()
				if attempts > 1 {
					span.AnnotateInt("failovers", attempts-1)
				}
			}
			return res, nil
		}
		if s.res != nil {
			// Application errors mean the server executed the request: it
			// is healthy, just unhappy. Everything else trips the breaker.
			if IsAppError(err) {
				s.res.recordSuccess(cand.Name)
			} else {
				s.res.recordFailure(cand.Name)
			}
		}
		lastErr = err
		failover := s.mayFailOver(method, err) && !errors.Is(err, ErrBudgetExceeded)
		if att != nil {
			att.SetError(err)
			if !failover || o.last(ctx, s, i) {
				att.Annotate("final", "true")
			}
			att.Finish()
		}
		if !failover {
			span.SetError(err)
			return Result{}, err
		}
	}
	err := fmt.Errorf("rmi: all %d candidates failed for %s.%s: %w",
		i, s.service, method, lastErr)
	span.SetError(err)
	return Result{}, err
}

// errJoin wraps a terminal condition (cancellation, budget expiry) with the
// last attempt error when there is one, so callers see both why the stub
// stopped and what the cluster last said.
func errJoin(terminal, last error) error {
	if last == nil {
		return terminal
	}
	return fmt.Errorf("%w (last attempt: %v)", terminal, last)
}

// sleepCtx waits d on the given clock unless ctx is cancelled first.
func sleepCtx(ctx context.Context, clock vclock.Clock, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	select {
	case <-clock.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// InvokeOn calls the method on a specific server, bypassing load balancing.
// Conversational stubs are "hardwired to the chosen server so requests are
// naturally routed to the right place" (§3.2). The stub's view names the
// server; an address the view does not list names itself, as a StaticView
// candidate does.
func (s *Stub) InvokeOn(ctx context.Context, serverAddr, method string, args []byte) (Result, error) {
	name := serverAddr
	for _, c := range s.view.Candidates(s.service) {
		if c.Addr == serverAddr {
			name = c.Name
			break
		}
	}
	return s.callOne(ctx, name, serverAddr, method, args, nil)
}

// BusyError is a wire-level BUSY response: the server refused the request
// at admission (execute queue full, or the budget had already expired), so
// no application code ran and failing over is always safe.
type BusyError struct {
	// Server is the refusing server's name: the candidate the stub called.
	Server string
	// Msg says why (queue full vs expired).
	Msg string
}

func (e *BusyError) Error() string { return "rmi: " + e.Server + " busy: " + e.Msg }

// Is makes a BUSY refusal satisfy wire.ErrNotRun.
func (e *BusyError) Is(target error) bool { return target == wire.ErrNotRun }

// IsBusy reports whether err is a server's admission refusal.
func IsBusy(err error) bool {
	var be *BusyError
	return errors.As(err, &be)
}

// mayFailOver is §3.1's rule: an application error means the request ran
// and the application said no; any other failure is sent to the next
// candidate when the method is idempotent or the failure proves that no
// application code ran (wire.ErrNotRun: the node's, BUSY's, not deployed's).
func (s *Stub) mayFailOver(method string, err error) bool {
	return !IsAppError(err) && (s.idempotent[method] || errors.Is(err, wire.ErrNotRun))
}

// callOne makes one attempt on the server name at addr. The reply does not
// name its server, so a result and a BUSY refusal are attributed to name.
func (s *Stub) callOne(ctx context.Context, name, addr, method string, args []byte, argsFor func(e *wire.Encoder, callee string)) (Result, error) {
	// Node.Call copies the frame body before it returns (see the Node
	// contract), so the pooled encoder is released as soon as the exchange
	// completes. The request fields are encoded directly — no intermediate
	// Call.
	enc := wire.AcquireEncoder()
	defer enc.Release()
	appendName(enc, s.service)
	appendName(enc, method)
	if argsFor != nil {
		mark := enc.BeginBytes()
		argsFor(enc, name)
		enc.EndBytes(mark)
	} else {
		enc.Bytes2(args)
	}
	budget, hasBudget := BudgetFrom(ctx)
	if hasBudget {
		remaining := budget.Remaining()
		if remaining <= 0 {
			return Result{}, fmt.Errorf("%w: before dialing %s", ErrBudgetExceeded, addr)
		}
		appendDeadline(enc, remaining)
		// Stop waiting at the deadline even if the server (frozen, slow,
		// partitioned-away) never answers: cancel the transport call when
		// the budget runs out.
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		t := budget.clock.AfterFunc(remaining, cancel)
		defer t.Stop()
		defer cancel()
	}
	if sp := trace.FromContext(ctx); sp != nil {
		trace.AppendEnvelope(enc, sp.Context())
	}
	frame := wire.Frame{Kind: wire.KindRequest, Body: enc.Bytes()}
	respFrame, err := s.node.Call(ctx, addr, frame)
	if hasBudget && budget.Expired() {
		// Whatever came back (or didn't) arrived after the caller's
		// deadline: never deliver a late response.
		return Result{}, fmt.Errorf("%w: no response from %s within budget", ErrBudgetExceeded, addr)
	}
	if err != nil {
		if errors.Is(err, wire.ErrNotRun) {
			return Result{}, err
		}
		return Result{}, fmt.Errorf("%w: %v", ErrNotRetryable, err)
	}
	resp, err := decodeResponse(respFrame.Body)
	if err != nil {
		return Result{}, fmt.Errorf("%w: malformed response: %v", ErrNotRetryable, err)
	}
	switch resp.status {
	case respOK:
		return Result{Body: resp.body, ServedBy: name}, nil
	case respAppError:
		return Result{}, &AppError{Msg: resp.errMsg}
	case respNoSuchService:
		// The service is not deployed there (stale view): nothing ran.
		return Result{}, &NotDeployedError{Msg: resp.errMsg}
	case respBusy:
		return Result{}, &BusyError{Server: name, Msg: resp.errMsg}
	default:
		return Result{}, fmt.Errorf("%w: %s", ErrNotRetryable, resp.errMsg)
	}
}
