package thermal

import (
	"math"

	"oftec/internal/sparse"
)

// This file is the one Galerkin projection of the steady-state system.
// The assembled system is affine in the drive (see rom.go), so projecting
// it onto an orthonormal basis V reduces every operating point to a dense
// k×k solve:
//
//	G = VᵀA₀V + Σ_t ca_t·VᵀA_tV      c = Vᵀb₀ + Σ_t cb_t·Vᵀb_t
//	T̃ = V·G⁻¹c
//
// Two callers share it. The reduced-order model projects the ω = 0
// system with a sink-conductance term and one Peltier/Joule term, and
// answers (ω, I) from the reduced solve. The batched engine projects one
// ω-slice's canonical system with one Peltier/Joule term per zone onto
// the fields an ω-group has already solved, and starts the group's later
// CG columns from T̃ (see seedProjector).

// galerkin is a projected affine system: the base operator and RHS plus
// the terms whose coefficients vary per operating point.
type galerkin struct {
	basis [][]float64 // k orthonormal n-vectors
	a0    [][]float64 // VᵀA₀V
	b0    []float64   // Vᵀb₀
	terms []galerkinTerm
}

// galerkinTerm is one projected affine term: the operator part scales
// with its ca coefficient, the RHS part with its cb coefficient.
type galerkinTerm struct {
	a [][]float64
	b []float64
}

// newGalerkin projects the base system (a, b) onto basis.
func newGalerkin(basis [][]float64, a *sparse.CSR, b []float64) galerkin {
	k := len(basis)
	g := galerkin{basis: basis, a0: denseSquare(k), b0: make([]float64, k)}
	av := make([]float64, len(b))
	for j := 0; j < k; j++ {
		a.MulVec(av, basis[j])
		for i := 0; i < k; i++ {
			g.a0[i][j] = sparse.Dot(basis[i], av)
		}
	}
	for i := 0; i < k; i++ {
		g.b0[i] = sparse.Dot(basis[i], b)
	}
	return g
}

// denseSquare allocates a k×k matrix of zeros.
func denseSquare(k int) [][]float64 {
	flat := make([]float64, k*k)
	rows := make([][]float64, k)
	for i := range rows {
		rows[i] = flat[i*k : (i+1)*k]
	}
	return rows
}

// tecTerms projects the TEC terms per control zone: the Peltier diagonal
// pattern (+α at the cold node, −α at the hot node), which scales with
// the zone current, and the Joule injection (R at the gen node), which
// scales with its square. zoneOf nil puts every module in one zone.
func (m *Model) tecTerms(basis [][]float64, zoneOf []int, numZones int) []galerkinTerm {
	k := len(basis)
	terms := make([]galerkinTerm, numZones)
	for z := range terms {
		terms[z] = galerkinTerm{a: denseSquare(k), b: make([]float64, k)}
	}
	for c, alpha := range m.tecAlpha {
		if alpha == 0 {
			continue
		}
		t := &terms[0]
		if zoneOf != nil {
			t = &terms[zoneOf[c]]
		}
		cold := m.node(planeTECCold, c)
		hot := m.node(planeTECHot, c)
		mid := m.node(planeTECMid, c)
		for i := 0; i < k; i++ {
			t.b[i] += m.tecR[c] * basis[i][mid]
			for j := 0; j < k; j++ {
				t.a[i][j] += alpha * (basis[i][cold]*basis[j][cold] - basis[i][hot]*basis[j][hot])
			}
		}
	}
	return terms
}

// solve assembles the reduced system at coefficients (ca, cb), one pair
// per term, into the k×k workspace ar and br and returns its solution y.
// ok=false means the reduced system is singular.
func (g *galerkin) solve(ca, cb []float64, ar [][]float64, br []float64) (y []float64, ok bool) {
	for i, row := range ar {
		copy(row, g.a0[i])
		br[i] = g.b0[i]
		for t, term := range g.terms {
			at := term.a[i]
			for j := range row {
				row[j] += ca[t] * at[j]
			}
			br[i] += cb[t] * term.b[i]
		}
	}
	lu, err := sparse.NewLU(ar)
	if err != nil {
		return nil, false
	}
	y, err = lu.Solve(br)
	return y, err == nil
}

// expand writes the full-space field V·y into dst.
func (g *galerkin) expand(y, dst []float64) {
	sparse.Fill(dst, 0)
	for k, v := range g.basis {
		sparse.AXPY(y[k], v, dst)
	}
}

// orthonormalBasis runs modified Gram-Schmidt (with one re-orthogonalization
// pass) over the snapshots, dropping near-dependent directions.
func orthonormalBasis(snaps [][]float64, maxRank int) [][]float64 {
	const dropTol = 1e-8
	var basis [][]float64
	for _, s := range snaps {
		if len(basis) >= maxRank {
			break
		}
		v := make([]float64, len(s))
		copy(v, s)
		orig := sparse.Norm2(v)
		if orig == 0 {
			continue
		}
		for pass := 0; pass < 2; pass++ {
			for _, b := range basis {
				sparse.AXPY(-sparse.Dot(b, v), b, v)
			}
		}
		if nrm := sparse.Norm2(v); nrm > dropTol*orig {
			inv := 1 / nrm
			for i := range v {
				v[i] *= inv
			}
			basis = append(basis, v)
		}
	}
	return basis
}

// seedProjector starts the later lockstep chunks of one ω-group: each
// column's CG seed is the Galerkin solution of its own patched system
// (the ω-slice's canonical system plus the column's per-zone Peltier and
// Joule terms) on the fields the group has already solved. The seed
// steers CG, never the answer: every column still stops on the true
// residual of its full system.
type seedProjector struct {
	gal galerkin
	ar  [][]float64 // k×k reduced-system workspace
	br  []float64
	sq  []float64 // per-zone squared currents (the Joule coefficients)
}

// newSeedProjector projects the canonical ω-slice system (a, b) under
// zoning z onto the span of fields. It returns nil when the fields span
// nothing (every solved point of the group ran away).
func (m *Model) newSeedProjector(z *Zoning, a *sparse.CSR, b []float64, fields [][]float64) *seedProjector {
	basis := orthonormalBasis(fields, len(fields))
	if len(basis) == 0 {
		return nil
	}
	var zoneOf []int
	numZones := 1
	if z != nil {
		zoneOf, numZones = z.zoneOf, z.numZones
	}
	p := &seedProjector{
		gal: newGalerkin(basis, a, b),
		ar:  denseSquare(len(basis)),
		br:  make([]float64, len(basis)),
		sq:  make([]float64, numZones),
	}
	p.gal.terms = m.tecTerms(basis, zoneOf, numZones)
	return p
}

// seed writes the projected seed of the column driven by the given zone
// currents into dst. It reports false, leaving dst unspecified, when the
// reduced system is singular or its solution is not finite; the caller
// then seeds from the group seed.
func (p *seedProjector) seed(currents, dst []float64) bool {
	for z, c := range currents {
		p.sq[z] = c * c
	}
	y, ok := p.gal.solve(currents, p.sq, p.ar, p.br)
	if !ok {
		return false
	}
	for _, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	p.gal.expand(y, dst)
	return true
}
