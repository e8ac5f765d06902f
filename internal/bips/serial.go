package bips

import (
	"fmt"

	"github.com/repro/cobra/internal/bounds"
)

// Serialisation of a BIPS round (paper, Section 3). One parallel round is
// decomposed as:
//
//	A = A_{t-1}
//	Bfix  = {u ∈ V : N(u) ⊆ A}                  deterministic part of A_t
//	C     = (N(A) ∪ {v}) \ Bfix                  candidates, never empty
//	Brand = random subset of C (each u joins with the infection
//	        probability; the source joins surely)
//	A_t   = Bfix ∪ Brand
//
// Vertices outside N(A) ∪ {v} cannot be infected, so this reproduces the
// plain round exactly. Processing C in a fixed vertex order yields the
// step increments
//
//	Y_l = d(u)·X_u − d_A(u)
//
// whose running sums track d(A_t) (equation (14)) and whose conditional
// expectations satisfy E(Y_l | past) >= 1/2 for b = 2 (equation (18)),
// respectively >= ρ/2 for branching 1+ρ (Section 6).
//
// The serialisation demands the paper's sampling model (with replacement,
// non-lazy) and Branch ∈ {1, 2}; other variants return an error.

// Step records one serialised step: the decision of one candidate vertex.
type Step struct {
	// Vertex is the candidate u deciding at this step.
	Vertex int
	// Deg and DegA are d(u) and d_A(u), the degree and the number of
	// currently infected neighbours.
	Deg, DegA int
	// Infected is X_u: whether u joined Brand.
	Infected bool
	// Y is the realised increment d(u)·X_u − d_A(u).
	Y int
	// ExpectedY is the exact conditional expectation of Y given the
	// current infected set: d_A(1 − d_A/d) for b = 2,
	// ρ·d_A(1 − d_A/d) for b = 1+ρ, and d − d_A for the source.
	ExpectedY float64
	// IsSource marks the persistent source (X ≡ 1).
	IsSource bool
}

// SerialRound advances the process by one round using the serialised
// dynamics and returns the per-step records in the fixed (increasing
// vertex id) order. The resulting A_t has exactly the distribution of a
// plain Step.
func (p *Process) SerialRound() ([]Step, error) {
	if p.cfg.Lazy {
		return nil, fmt.Errorf("%w: serialisation requires the non-lazy process", ErrConfig)
	}
	if p.cfg.Branch > 2 || (p.cfg.Branch == 2 && p.cfg.Rho > 0) {
		return nil, fmt.Errorf("%w: serialisation supports b = 2 or b = 1+ρ, got %d+%v",
			ErrConfig, p.cfg.Branch, p.cfg.Rho)
	}
	n := p.g.N()
	cur := p.k.Frontier()
	next := make([]int, 0, p.InfectedCount()+8)
	var steps []Step
	for u := 0; u < n; u++ {
		deg := p.g.Degree(u)
		dA := 0
		for _, w := range p.g.Neighbors(u) {
			if cur.Contains(int(w)) {
				dA++
			}
		}
		if dA == deg {
			// u ∈ Bfix: infected deterministically, not a step.
			next = append(next, u)
			continue
		}
		if dA == 0 && u != p.source {
			// Not a candidate; cannot be infected this round.
			continue
		}
		st := Step{Vertex: u, Deg: deg, DegA: dA, IsSource: u == p.source}
		if u == p.source {
			st.Infected = true
			st.Y = deg - dA
			st.ExpectedY = float64(deg - dA)
		} else {
			st.Infected = p.sampleInfected(u)
			if st.Infected {
				st.Y = deg - dA
			} else {
				st.Y = -dA
			}
			st.ExpectedY = p.expectedY(deg, dA)
		}
		if st.Infected {
			next = append(next, u)
		}
		steps = append(steps, st)
	}
	// Hand the serialised round's outcome back to the kernel, which
	// advances the round counter exactly as a plain Step would.
	p.k.InstallFrontier(next)
	return steps, nil
}

// expectedY returns E(Y) = d·P(infected) − d_A for a non-source candidate.
// For b = 2: P = 1 − (1−d_A/d)², giving E(Y) = d_A(1 − d_A/d) (eq. 17).
// For b = 1+ρ: P = 1 − (1−d_A/d)(1−ρ d_A/d) (eq. 33), giving
// E(Y) = ρ·d_A(1 − d_A/d).
func (p *Process) expectedY(deg, dA int) float64 {
	frac := float64(dA) / float64(deg)
	switch {
	case p.cfg.Branch == 2:
		return float64(dA) * (1 - frac)
	default: // Branch == 1, fractional Rho (possibly 0 = plain walk dual)
		return p.cfg.Rho * float64(dA) * (1 - frac)
	}
}

// MartingaleFloor returns the paper's lower bound on every conditional
// step expectation under c: 1/2 for b = 2 (eq. 18), ρ/2 for b = 1+ρ
// (Section 6). Source steps satisfy Y >= 1 always.
func MartingaleFloor(c Config) float64 {
	if c.Branch == 2 {
		return 0.5
	}
	return c.Rho / 2
}

// DegreeOfInfected returns d(A_t) = Σ_{u ∈ A_t} d(u), the quantity whose
// growth Section 3 tracks (equation (14)).
func (p *Process) DegreeOfInfected() int {
	return p.k.FrontierVolume()
}

// CandidateCount returns |C_t| for the upcoming round, the set bounded
// below by Corollary 5.2 (|C| >= |A|(1−λ)/2 while |A| <= n/2 on regular
// graphs).
func (p *Process) CandidateCount() int {
	return candidateCount(p.g, p.k.Frontier(), p.source)
}

// TheoremOneBound evaluates the Theorem 1.4 bound shape
// m + dmax²·ln n for the process's graph: bounds.General, the shape of
// Theorem 1.1.
func (p *Process) TheoremOneBound() float64 { return bounds.General(p.g) }
