package transport_test

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"jsweep/internal/geom"
	"jsweep/internal/kobayashi"
	"jsweep/internal/mesh"
	"jsweep/internal/meshgen"
	"jsweep/internal/quadrature"
	"jsweep/internal/transport"
)

// oracleSolveCell is the kernel pair as it was before the cell-geometry
// table: it walks p.M through the mesh.Mesh interface for every face (the
// step scheme twice). It survives here only as the bitwise oracle for the
// table-backed kernels behind Problem.SolveCell.
func oracleSolveCell(p *transport.Problem, c mesh.CellID, omega geom.Vec3, qCell, psiIn, psiOut, psiBar []float64) {
	m := p.M
	mat := &p.Mats[m.Material(c)]
	vol := m.CellVolume(c)
	G := p.Groups
	if p.Scheme == transport.Diamond {
		type axis struct {
			inFace, outFace int
			coef            float64
		}
		var axes [3]axis
		for i := 0; i < 3; i++ {
			lo, hi := 2*i, 2*i+1
			fLo := m.Face(c, lo)
			dot := omega.Dot(fLo.Normal)
			if dot < 0 {
				axes[i] = axis{inFace: lo, outFace: hi, coef: 2 * (-dot) * fLo.Area}
			} else {
				axes[i] = axis{inFace: hi, outFace: lo, coef: 2 * dot * fLo.Area}
			}
		}
		var denom float64
		for g := 0; g < G; g++ {
			psiBar[g] = qCell[g] * vol
		}
		denomBase := 0.0
		for i := 0; i < 3; i++ {
			denomBase += axes[i].coef
			for g := 0; g < G; g++ {
				psiBar[g] += axes[i].coef * psiIn[axes[i].inFace*G+g]
			}
		}
		for g := 0; g < G; g++ {
			denom = mat.SigmaT[g]*vol + denomBase
			psiBar[g] /= denom
		}
		for i := 0; i < 3; i++ {
			for g := 0; g < G; g++ {
				out := 2*psiBar[g] - psiIn[axes[i].inFace*G+g]
				if out < 0 {
					out = 0
				}
				psiOut[axes[i].outFace*G+g] = out
			}
		}
		return
	}
	nf := m.NumFaces(c)
	var outCoef float64
	for g := 0; g < G; g++ {
		psiBar[g] = qCell[g] * vol
	}
	for f := 0; f < nf; f++ {
		face := m.Face(c, f)
		dot := omega.Dot(face.Normal)
		if dot > mesh.UpwindEps {
			outCoef += dot * face.Area
		} else if dot < -mesh.UpwindEps {
			a := -dot * face.Area
			for g := 0; g < G; g++ {
				psiBar[g] += a * psiIn[f*G+g]
			}
		}
	}
	for g := 0; g < G; g++ {
		psiBar[g] /= mat.SigmaT[g]*vol + outCoef
	}
	for f := 0; f < nf; f++ {
		face := m.Face(c, f)
		if omega.Dot(face.Normal) > mesh.UpwindEps {
			for g := 0; g < G; g++ {
				psiOut[f*G+g] = psiBar[g]
			}
		}
	}
}

// threeGroupMats returns two zones of three-group cross sections.
func threeGroupMats() []transport.Material {
	return []transport.Material{
		{Name: "a", SigmaT: []float64{0.4, 0.7, 1.3}, Source: []float64{1, 0.5, 0}},
		{Name: "b", SigmaT: []float64{1e-4, 0.05, 2.5}},
	}
}

// twoZones splits a mesh into material zones 0 and 1 along the plane x = y.
func twoZones(c geom.Vec3) int {
	if c.X > c.Y {
		return 1
	}
	return 0
}

func s4(t *testing.T) *quadrature.Set {
	t.Helper()
	quad, err := quadrature.New(4)
	if err != nil {
		t.Fatal(err)
	}
	return quad
}

// kernelCoverage counts what a checkKernel pass exercised.
type kernelCoverage struct{ calls, grazing, boundary int }

// checkKernel compares Problem.SolveCell with the oracle, bitwise on psiOut
// and psiBar, over every cell × every direction of the quadrature plus the
// extra ones, with random source, random inflow on every face slot
// (outgoing and boundary slots hold garbage the kernels must ignore) and a
// random psiOut prefill (incoming slots must come back untouched).
func checkKernel(t *testing.T, p *transport.Problem, extra []geom.Vec3, seed int64) kernelCoverage {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	omegas := append([]geom.Vec3(nil), extra...)
	for _, d := range p.Quad.Directions {
		omegas = append(omegas, d.Omega)
	}
	G, mf := p.Groups, p.MaxFaces()
	q := make([]float64, G)
	in := make([]float64, mf*G)
	outA, outB := make([]float64, mf*G), make([]float64, mf*G)
	barA, barB := make([]float64, G), make([]float64, G)
	var cov kernelCoverage
	for c := 0; c < p.M.NumCells(); c++ {
		id := mesh.CellID(c)
		for _, omega := range omegas {
			for f := 0; f < p.M.NumFaces(id); f++ {
				face := p.M.Face(id, f)
				if face.Neighbor < 0 {
					cov.boundary++
				}
				if math.Abs(omega.Dot(face.Normal)) <= mesh.UpwindEps {
					cov.grazing++
				}
			}
			for g := range q {
				q[g] = rng.Float64()
			}
			for i := range in {
				in[i] = 10 * rng.Float64()
				outA[i] = rng.NormFloat64()
				outB[i] = outA[i]
			}
			p.SolveCell(id, omega, q, in, outA, barA)
			oracleSolveCell(p, id, omega, q, in, outB, barB)
			cov.calls++
			for i := range outA {
				if math.Float64bits(outA[i]) != math.Float64bits(outB[i]) {
					t.Fatalf("cell %d Ω=%v: psiOut[%d] = %x, oracle %x", c, omega, i, math.Float64bits(outA[i]), math.Float64bits(outB[i]))
				}
			}
			for g := range barA {
				if math.Float64bits(barA[g]) != math.Float64bits(barB[g]) {
					t.Fatalf("cell %d Ω=%v: psiBar[%d] = %x, oracle %x", c, omega, g, math.Float64bits(barA[g]), math.Float64bits(barB[g]))
				}
			}
		}
	}
	return cov
}

// grazingOmegas are directions with |Ω·n| ≤ UpwindEps on axis-aligned
// faces: exactly zero, and non-zero but inside the threshold on either side.
var grazingOmegas = []geom.Vec3{
	{X: 1},
	{Y: -1},
	{X: 5e-13, Y: 0.6, Z: 0.8},
	{X: -5e-13, Y: -0.6, Z: 0.8},
}

func TestKernelMatchesOracleBallStep(t *testing.T) {
	m, err := meshgen.Ball(8, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	m.SetMaterialFunc(twoZones)
	p := &transport.Problem{M: m, Mats: threeGroupMats(), Quad: s4(t), Groups: 3, Scheme: transport.Step}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if sharesRow(p) {
		t.Fatal("a tet ball must not collapse to one shared geometry row")
	}
	cov := checkKernel(t, p, grazingOmegas, 1)
	// The Kuhn lattice has faces with normals like (1,-1,0)/√2, which S4's
	// (μ1, μ1, μ2) directions graze.
	if cov.grazing == 0 || cov.boundary == 0 {
		t.Errorf("coverage: %+v, want grazing and boundary faces exercised", cov)
	}
}

func TestKernelMatchesOracleKobayashi(t *testing.T) {
	for _, scheme := range []transport.Scheme{transport.Step, transport.Diamond} {
		p, _, err := kobayashi.Build(kobayashi.Spec{N: 8, SnOrder: 4, Scattering: true, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		if !sharesRow(p) {
			t.Fatal("a uniform structured grid must share one geometry row")
		}
		cov := checkKernel(t, p, grazingOmegas, 2)
		if cov.grazing == 0 || cov.boundary == 0 {
			t.Errorf("%v coverage: %+v, want grazing and boundary faces exercised", scheme, cov)
		}
		// The same grid with several groups.
		m, err := mesh.NewStructured3D(8, 8, 8, geom.Vec3{}, geom.Vec3{X: kobayashi.Extent, Y: kobayashi.Extent, Z: kobayashi.Extent})
		if err != nil {
			t.Fatal(err)
		}
		m.SetMaterialFunc(twoZones)
		mg := &transport.Problem{M: m, Mats: threeGroupMats(), Quad: p.Quad, Groups: 3, Scheme: scheme}
		if err := mg.Validate(); err != nil {
			t.Fatal(err)
		}
		checkKernel(t, mg, grazingOmegas, 3)
	}
}

func TestKernelMatchesOracleTwistedRing(t *testing.T) {
	m, err := meshgen.TwistedRing(16, 1.0, 2.0, 0.2, math.Pi/3)
	if err != nil {
		t.Fatal(err)
	}
	m.SetMaterialFunc(twoZones)
	p := &transport.Problem{M: m, Mats: threeGroupMats(), Quad: s4(t), Groups: 3, Scheme: transport.Step}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if cov := checkKernel(t, p, grazingOmegas, 4); cov.boundary == 0 {
		t.Errorf("coverage: %+v, want boundary faces exercised", cov)
	}
}

// sharesRow reports whether the problem's geometry table serves every cell
// from one row (the first two cells' faces alias).
func sharesRow(p *transport.Problem) bool {
	g := p.Geometry()
	return &g.Faces(0)[0] == &g.Faces(1)[0]
}

// gradedGrid is a structured grid whose cells grow along x: every cell has
// its own areas and volume, so the geometry table cannot share a row and
// the six-face kernels run on per-cell rows.
type gradedGrid struct{ *mesh.Structured3D }

func (m gradedGrid) scale(c mesh.CellID) float64 {
	i, _, _ := m.Coords(c)
	return 1 + 0.125*float64(i)
}

func (m gradedGrid) CellVolume(c mesh.CellID) float64 {
	return m.Structured3D.CellVolume(c) * m.scale(c)
}

func (m gradedGrid) Face(c mesh.CellID, f int) mesh.Face {
	face := m.Structured3D.Face(c, f)
	if f != mesh.FaceXLo && f != mesh.FaceXHi {
		face.Area *= m.scale(c)
	}
	return face
}

func TestKernelMatchesOracleGradedGrid(t *testing.T) {
	base, err := mesh.NewStructured3D(5, 4, 3, geom.Vec3{}, geom.Vec3{X: 5, Y: 2, Z: 1})
	if err != nil {
		t.Fatal(err)
	}
	base.SetMaterialFunc(twoZones)
	for _, scheme := range []transport.Scheme{transport.Step, transport.Diamond} {
		p := &transport.Problem{M: gradedGrid{base}, Mats: threeGroupMats(), Quad: s4(t), Groups: 3, Scheme: scheme}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if sharesRow(p) {
			t.Fatal("a graded grid must keep per-cell rows")
		}
		checkKernel(t, p, grazingOmegas, 5)
	}
}

// faceCountMesh overrides the face count: of every cell (cell < 0) or of
// one cell only.
type faceCountMesh struct {
	mesh.Mesh
	cell mesh.CellID
	n    int
}

func (m faceCountMesh) NumFaces(c mesh.CellID) int {
	if m.cell < 0 || c == m.cell {
		return m.n
	}
	return m.Mesh.NumFaces(c)
}

func (m faceCountMesh) Face(c mesh.CellID, f int) mesh.Face {
	return m.Mesh.Face(c, f%m.Mesh.NumFaces(c))
}

// A mesh the kernels cannot handle is a Validate error, not a panic; only
// the SolveCell path (which has no error return) panics.
func TestValidateRejectsUnsupportedFaceCounts(t *testing.T) {
	base, err := mesh.NewStructured3D(2, 2, 2, geom.Vec3{}, geom.Vec3{X: 1, Y: 1, Z: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		m    mesh.Mesh
		want string
	}{
		"nine faces":   {faceCountMesh{base, -1, 9}, "at most 8"},
		"ragged faces": {faceCountMesh{base, 5, 4}, "constant face count"},
	} {
		p := &transport.Problem{M: tc.m, Mats: threeGroupMats()[:1], Quad: s4(t), Groups: 3, Scheme: transport.Step}
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", name, err, tc.want)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: MaxFaces did not panic on an invalid problem", name)
				}
			}()
			p.MaxFaces()
		}()
	}
}

// countingMesh counts Face calls, i.e. geometry-table builds.
type countingMesh struct {
	mesh.Mesh
	faceCalls atomic.Int64
}

func (m *countingMesh) Face(c mesh.CellID, f int) mesh.Face {
	m.faceCalls.Add(1)
	return m.Mesh.Face(c, f)
}

// The table is built exactly once per Problem, also when the first uses
// race (run with -race), and no kernel call walks the mesh afterwards.
func TestGeometryBuiltOnceUnderConcurrentFirstUse(t *testing.T) {
	base, err := meshgen.Ball(6, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	m := &countingMesh{Mesh: base}
	p := &transport.Problem{M: m, Mats: threeGroupMats()[:1], Quad: s4(t), Groups: 3, Scheme: transport.Step}
	const workers = 8
	tables := make([]*mesh.CellGeometry, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q, in := make([]float64, 3), make([]float64, 12)
			out, bar := make([]float64, 12), make([]float64, 3)
			<-start
			for c := w; c < base.NumCells(); c += workers {
				p.SolveCell(mesh.CellID(c), p.Quad.Directions[w].Omega, q, in, out, bar)
			}
			tables[w] = p.Geometry()
		}(w)
	}
	close(start)
	wg.Wait()
	if got, want := m.faceCalls.Load(), int64(4*base.NumCells()); got != want {
		t.Errorf("mesh.Face called %d times, want %d (one build of %d tets)", got, want, base.NumCells())
	}
	for w := 1; w < workers; w++ {
		if tables[w] != tables[0] {
			t.Fatalf("worker %d saw a different table", w)
		}
	}
}
