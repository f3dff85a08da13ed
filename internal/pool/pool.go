// Package pool bounds concurrency with a fixed number of slots. A slot is
// held only for the duration of a function call and released by a defer, so
// no caller can acquire without releasing, release twice, or lose a slot to a
// panic: the pairing is a property of the type, not of its callers.
package pool

import "context"

// Pool is a counting semaphore whose slots are scoped to a function call.
// The zero value is not usable; call New.
type Pool struct {
	slots chan struct{}
}

// New returns a pool of n slots; n must be positive.
func New(n int) *Pool { return &Pool{slots: make(chan struct{}, n)} }

// Do waits for a free slot, runs fn while holding it and releases it when fn
// returns or panics. If ctx is done before a slot is claimed — already done
// on entry included, so cancellation wins over a free slot — Do returns
// ctx.Err() without running fn.
func (p *Pool) Do(ctx context.Context, fn func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-p.slots }()
	fn()
	return nil
}

// TryDo runs fn while holding a slot if one is free right now, and reports
// whether it ran; it never waits.
func (p *Pool) TryDo(fn func()) bool {
	select {
	case p.slots <- struct{}{}:
	default:
		return false
	}
	defer func() { <-p.slots }()
	fn()
	return true
}
