package rmi

import (
	"context"
	"errors"
	"fmt"
	"time"

	"wls/internal/vclock"
	"wls/internal/wire"
)

// This file implements deadline/budget propagation: a caller attaches a
// time budget to its context, every RMI hop ships the *remaining* budget
// across the wire, and the receiving server re-derives a budget against its
// own clock. Only durations cross the wire — the cluster has no global
// clock to compare absolute timestamps against (and the virtual clock makes
// wall-clock context deadlines meaningless in simulation), so the hop cost
// is simply absorbed by the shrinking remainder, mirroring how RMI/IIOP
// request timeouts propagated between WebLogic servers.

// ErrBudgetExceeded reports that a request's time budget ran out on the
// client side: either before an attempt could be issued or while waiting
// for a response. It wraps nothing retryable — the budget is gone.
var ErrBudgetExceeded = errors.New("rmi: request budget exhausted")

// Budget is a request's time allowance, pinned to the clock it was minted
// on. The zero Budget is "no budget" (infinite).
type Budget struct {
	clock    vclock.Clock
	deadline time.Time
}

// Valid reports whether a budget is actually set.
func (b Budget) Valid() bool { return b.clock != nil }

// Remaining returns the unspent budget (negative once expired).
func (b Budget) Remaining() time.Duration {
	if b.clock == nil {
		return 0
	}
	return b.deadline.Sub(b.clock.Now())
}

// Expired reports whether the budget has run out.
func (b Budget) Expired() bool { return b.clock != nil && b.Remaining() <= 0 }

type budgetKey struct{}

// WithBudget attaches a time budget of d to the context, measured on the
// given clock. Stubs ship the remaining budget on every hop; servers refuse
// expired-on-arrival work and hand their services a context carrying the
// re-derived budget, so nested EJB/tx/JMS calls inherit the shrinkage.
//
//wls:nolint unreached -- test hook: TestBudgetPropagatesAndShrinksAcrossHops
func WithBudget(ctx context.Context, clock vclock.Clock, d time.Duration) context.Context {
	return context.WithValue(ctx, budgetKey{}, Budget{clock: clock, deadline: clock.Now().Add(d)})
}

// BudgetFrom extracts the budget attached to ctx, if any.
func BudgetFrom(ctx context.Context) (Budget, bool) {
	b, ok := ctx.Value(budgetKey{}).(Budget)
	return b, ok
}

// ---------------------------------------------------------------------------
// Wire encoding.

// The deadline block is appended AFTER the fixed RMI request fields and
// BEFORE the optional trace envelope (the trace envelope's parser insists
// on consuming the tail, so it must come last). The decoder dispatches on
// the magic byte: an old request has neither block, a traced-but-unbudgeted
// request starts directly with the trace magic, and a budgeted request
// starts with the deadline magic. Versions other than 1 are rejected the
// same way the trace envelope rejects them: as malformed, never a panic.
const (
	deadlineMagic   byte = 0xD9
	deadlineVersion byte = 1
)

// ErrBadDeadline reports a corrupt deadline block.
var ErrBadDeadline = errors.New("rmi: malformed deadline block")

// appendDeadline appends the remaining budget (clamped to ≥0) to a request
// being encoded.
func appendDeadline(e *wire.Encoder, remaining time.Duration) {
	if remaining < 0 {
		remaining = 0
	}
	e.Byte(deadlineMagic)
	e.Byte(deadlineVersion)
	e.Uint64(uint64(remaining))
}

// parseDeadline reads the optional deadline block. Absent block (next byte
// is not the deadline magic, or nothing remains) returns ok=false with no
// error, leaving the decoder positioned for the trace envelope.
func parseDeadline(d *wire.Decoder) (remaining time.Duration, ok bool, err error) {
	if d.Err() != nil {
		return 0, false, d.Err()
	}
	magic, have := d.Peek()
	if !have || magic != deadlineMagic {
		return 0, false, nil
	}
	d.Byte() // consume magic
	version := d.Byte()
	if d.Err() != nil || version != deadlineVersion {
		return 0, false, fmt.Errorf("%w: unsupported version %d", ErrBadDeadline, version)
	}
	nanos := d.Uint64()
	if d.Err() != nil {
		return 0, false, fmt.Errorf("%w: truncated", ErrBadDeadline)
	}
	return time.Duration(nanos), true, nil
}
