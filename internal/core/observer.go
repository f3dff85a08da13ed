package core

// Observer receives per-step callbacks from a running compilation, so
// progress reporting and tooling attach as a pluggable layer instead of a
// fork of the scheduling loop. Set it on Options (both this package's and
// the baseline compilers').
//
// Callbacks arrive synchronously on the compiling goroutine: they must be
// cheap and must not call back into the compiler. One Compile run may
// restart the gate count — SABRE evaluates several candidate mappings, each
// a full scheduling pass — so done can move backwards between passes.
// Implementations attached to several concurrent compilations must be safe
// for concurrent use.
type Observer interface {
	// GateScheduled fires after each two-qubit gate executes; done counts
	// gates executed in the current pass, total the pass's two-qubit gates.
	GateScheduled(done, total int)
	// Shuttle fires for each routing move of qubit q from zone `from` to
	// zone `to` (baseline compilers report per-trap hops).
	Shuttle(q, from, to int)
	// Eviction fires for each conflict-handling eviction of victim from
	// zone `from` to zone `to` — the page-fault events of §3.2.
	Eviction(victim, from, to int)
	// SwapInserted fires for each inter-module SWAP the §3.3 inserter adds
	// between qubits a and b.
	SwapInserted(a, b int)
}

// nopObserver is the Observer the scheduler uses when Options.Observer is
// nil, so the run loop never branches on observation.
type nopObserver struct{}

func (nopObserver) GateScheduled(done, total int) {}
func (nopObserver) Shuttle(q, from, to int)       {}
func (nopObserver) Eviction(victim, from, to int) {}
func (nopObserver) SwapInserted(a, b int)         {}

// ObserverOrNop returns obs, or the no-op observer when obs is nil, so run
// loops (here and in the baseline compilers) never branch on observation.
func ObserverOrNop(obs Observer) Observer {
	if obs == nil {
		return nopObserver{}
	}
	return obs
}
