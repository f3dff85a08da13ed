// Package flagged is the sempair analyzer's negative fixture: semaphore
// traffic that goes unbalanced on at least one control-flow path.
package flagged

// pool is a counting semaphore shaped like eval's Runner.
type pool struct{ sem chan struct{} }

// leak acquires and never releases.
func leak(p *pool) {
	p.sem <- struct{}{} // want `not released on every path`
}

// overRelease releases a slot it never acquired.
func overRelease(p *pool) {
	<-p.sem // want `without a matching acquire`
}

// earlyReturn releases on the happy path only.
func earlyReturn(p *pool, fail bool) {
	p.sem <- struct{}{} // want `not released on every path`
	if fail {
		return
	}
	<-p.sem
}

// gate carries semaphore-shaped methods.
type gate struct{}

func (g *gate) Acquire() {}

func (g *gate) Release() {}

// methodLeak pairs Acquire with Release on only one switch arm.
func methodLeak(g *gate, mode int) {
	g.Acquire() // want `not released on every path`
	switch mode {
	case 0:
		g.Release()
	}
}
