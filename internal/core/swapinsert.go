package core

import (
	"math"

	"mussti/internal/arch"
	"mussti/internal/dag"
)

// weightRow returns row W(q, ·) of the §3.3 weight table: entry c_j
// counts gates within the first k remaining DAG layers that pair q with a
// qubit currently mapped to module c_j. It fills the scheduler's reused
// row buffer from q's own look-ahead window — trySwapFor runs it after
// every fiber gate and pickSwapPartner once per optical-zone resident, so
// it sits on the scheduling hot path and allocates nothing in steady
// state. The returned slice is valid until the next weightRow call.
//
//mussti:hotpath
func (s *scheduler) weightRow(q int) []int {
	if cap(s.wrowScratch) < len(s.d.Modules) {
		s.wrowScratch = make([]int, len(s.d.Modules)) //mussti:allow=hotalloc one-time lazy scratch sizing
	}
	row := s.wrowScratch[:len(s.d.Modules)]
	for i := range row {
		row[i] = 0
	}
	//mussti:allow=hotalloc visit closure pinned non-escaping by BenchmarkSchedulerPassReuse allocs/op
	s.g.AheadOn(q, s.opts.LookAhead, func(_ int, n *dag.Node) {
		row[s.moduleOf(n.Gate.Other(q))]++
	})
	return row
}

//mussti:hotpath
func (s *scheduler) moduleOf(q int) int {
	return s.d.Zone(s.eng.ZoneOf(q)).Module
}

// maybeInsertSwaps applies the §3.3 rule after a fiber gate on (qa, qb):
// for each operand qx on module cx, if qx has no remaining near-term work
// on its own module (W(qx,cx)=0) but heavy work on some other module cj
// (W(qx,cj) > T), and cj hosts a qubit qc that is itself done with cj
// (W(qc,cj)=0), insert a logical SWAP(qx,qc) — three fiber MS gates — so
// the upcoming gates run locally on cj instead of over the fiber or via
// shuttles.
//
//mussti:hotpath
func (s *scheduler) maybeInsertSwaps(qa, qb int) error {
	for _, qx := range [2]int{qa, qb} {
		if err := s.trySwapFor(qx); err != nil {
			return err
		}
	}
	return nil
}

//mussti:hotpath
func (s *scheduler) trySwapFor(qx int) error {
	s.stats.SwapsConsidered++
	cx := s.moduleOf(qx)
	wx := s.weightRow(qx)
	if wx[cx] != 0 {
		return nil // still needed here in the near future; stay put
	}
	// Pick the foreign module with the most upcoming work, above threshold.
	bestModule, bestW := -1, s.opts.SwapThreshold
	for cj, weight := range wx {
		if cj == cx {
			continue
		}
		if weight > bestW {
			bestModule, bestW = cj, weight
		}
	}
	if bestModule == -1 {
		return nil
	}
	qc := s.pickSwapPartner(bestModule, qx)
	if qc == -1 {
		return nil
	}
	// qx just executed a fiber gate, so it sits in an optical zone; qc may
	// need delivery to its module's optical zone first.
	if s.d.Zone(s.eng.ZoneOf(qx)).Level != arch.LevelOptical {
		// SWAP insertion only triggers right after a fiber gate; qx moving
		// away would indicate a sequencing bug, so treat as not applicable.
		return nil
	}
	if err := s.routeToOptical(qc, qx); err != nil {
		return err
	}
	if err := s.eng.InsertedSwap(qx, qc); err != nil {
		return err
	}
	s.stats.SwapsInserted++
	s.obs.SwapInserted(qx, qc)
	s.clock++
	s.lastUsed[qx] = s.clock
	s.lastUsed[qc] = s.clock
	return nil
}

// pickSwapPartner finds a qubit sitting in an optical zone of module cj
// with W(qc, cj) == 0 — resident at the fiber interface but not needed on
// that module — preferring the least recently used candidate. Restricting
// candidates to the optical zone keeps the insertion conservative (the
// paper's own example swaps an interface-resident qubit): the SWAP then
// costs only its three fiber gates, with no staging shuttles whose heat
// would degrade every later gate in the zone. Returns -1 when no resident
// qualifies. The candidate list and the weight rows both live in reused
// scheduler scratch: this runs on every SWAP-insertion check and allocates
// nothing in steady state.
//
//mussti:hotpath
func (s *scheduler) pickSwapPartner(cj, exclude int) int {
	residents := s.residentScratch[:0]
	for _, z := range s.d.ZonesByLevel(cj, arch.LevelOptical) {
		for _, q := range s.eng.Chain(z) {
			if q != exclude {
				residents = append(residents, q)
			}
		}
	}
	s.residentScratch = residents
	if len(residents) == 0 {
		return -1
	}
	best, bestUsed := -1, int64(math.MaxInt64)
	for _, q := range residents {
		if s.weightRow(q)[cj] != 0 {
			continue
		}
		if s.lastUsed[q] < bestUsed {
			best, bestUsed = q, s.lastUsed[q]
		}
	}
	return best
}
