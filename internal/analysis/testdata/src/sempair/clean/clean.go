// Package clean is the sempair analyzer's positive fixture: balanced
// semaphore traffic across branches, loops, selects and defers.
package clean

import "context"

type pool struct{ sem chan struct{} }

// balanced pairs acquire and release on the straight path.
func balanced(p *pool, work func()) {
	p.sem <- struct{}{}
	work()
	<-p.sem
}

// deferred releases via defer, which covers every path including the early
// return.
func deferred(p *pool, work func() bool) bool {
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	if !work() {
		return false
	}
	return true
}

// selectAcquire acquires through a select and releases on both exits.
func selectAcquire(ctx context.Context, p *pool, work func()) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case p.sem <- struct{}{}:
	}
	work()
	<-p.sem
	return nil
}

// worker loops acquiring and releasing once per iteration.
func worker(ctx context.Context, p *pool, jobs []func()) {
	for _, j := range jobs {
		select {
		case <-ctx.Done():
			return
		case p.sem <- struct{}{}:
		}
		j()
		<-p.sem
	}
}
