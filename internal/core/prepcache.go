package core

import (
	"sync"

	"mussti/internal/circuit"
)

// reversePrepMaxCircuits bounds how many distinct circuits the reverse-prep
// cache tracks before it is wholesale cleared.
const reversePrepMaxCircuits = 64

// reversePreps caches the SABRE reverse pass's precomputation per source
// circuit. Reversing the circuit and rebuilding its DAG and per-qubit
// tables is O(g) work that depends only on the circuit, yet every compile
// used to repeat it — and experiments and benchmarks compile the same
// circuit many times over (across architectures, repetitions, candidate
// configurations). Entries are sync.Pools so concurrent compiles of one
// circuit each get an exclusive prep (a prep may be reused serially, never
// shared) and idle preps stay reclaimable by the GC. When one circuit too
// many appears the whole table is dropped: real runs churn through few
// distinct circuits, and wholesale clearing keeps eviction deterministic
// where evicting "some" map entry would not be.
var reversePreps = struct {
	mu sync.Mutex
	m  map[*circuit.Circuit]*sync.Pool
}{m: make(map[*circuit.Circuit]*sync.Pool)}

// acquireReversePrep returns a prep for the reverse of c — cached when one
// is idle, freshly built otherwise — plus the pool to Put it back into once
// the pass is done. The caller has exclusive use until then. Reuse cannot
// change output: newSchedulerWith rewinds the prep's DAG and treats every
// other prep structure as read-only, so a recycled prep is indistinguishable
// from a fresh one.
//
// Safe under concurrent compiles of one circuit (eval's Runner compiles
// many variants of one circuit at once): the map is mutex-guarded, pool.Get
// hands each goroutine an exclusive prep, and returning a prep to a pool
// that a concurrent wholesale clear has since orphaned merely lets the GC
// reclaim it. TestReversePrepConcurrent
// pins this with -race.
func acquireReversePrep(c *circuit.Circuit) (*prep, *sync.Pool) {
	reversePreps.mu.Lock()
	pool := reversePreps.m[c]
	if pool == nil {
		if len(reversePreps.m) >= reversePrepMaxCircuits {
			clear(reversePreps.m)
		}
		pool = &sync.Pool{}
		reversePreps.m[c] = pool
	}
	reversePreps.mu.Unlock()
	if p, _ := pool.Get().(*prep); p != nil {
		return p, pool
	}
	return newPrep(c.Reverse()), pool
}
