// Package transport implements the discrete-ordinates (Sn) radiation
// transport numerics the sweep framework solves: cross-section data, the
// per-cell transport kernels (step/upwind for general meshes, diamond
// difference for structured grids), and the source-iteration outer loop.
// The actual mesh traversal is delegated to a SweepExecutor — the serial
// reference, the JSweep data-driven runtime, and the KBA/BSP baselines all
// implement it, which is how their numerics are cross-validated.
package transport

import (
	"fmt"
	"math"
	"sync"

	"jsweep/internal/geom"
	"jsweep/internal/mesh"
	"jsweep/internal/quadrature"
)

// FourPi is the solid angle of the unit sphere.
const FourPi = 4 * math.Pi

// Material holds multigroup cross sections and the fixed volumetric source
// of one material zone.
type Material struct {
	// Name labels the zone in reports.
	Name string
	// SigmaT is the total macroscopic cross section per group [1/cm].
	SigmaT []float64
	// SigmaS is the isotropic scattering matrix: SigmaS[gFrom][gTo] is the
	// cross section for scattering from group gFrom into gTo [1/cm].
	// May be nil for a pure absorber.
	SigmaS [][]float64
	// Source is the fixed isotropic volumetric source per group
	// [n/cm³/s]. May be nil.
	Source []float64
}

// Scheme selects the spatial differencing of the kernel.
type Scheme int

const (
	// Step is the fully-upwind (step) scheme: positive and conservative on
	// any mesh; first-order accurate.
	Step Scheme = iota
	// Diamond is diamond differencing on structured grids: second-order,
	// with a set-to-zero negative-flux fixup.
	Diamond
)

func (s Scheme) String() string {
	if s == Diamond {
		return "diamond"
	}
	return "step"
}

// Problem is a complete Sn transport problem: mesh, material map,
// quadrature and differencing scheme.
//
// The kernels do not read M: on first use (Validate, or the first
// SolveCell) the problem snapshots what they need into a
// mesh.CellGeometry, once, and computes from that. M must therefore not
// be mutated (SetMaterialFunc) after that point. A Problem holds a
// sync.Once and must not be copied.
type Problem struct {
	M      mesh.Mesh
	Mats   []Material
	Quad   *quadrature.Set
	Groups int
	Scheme Scheme

	cellsOnce sync.Once
	cells     *mesh.CellGeometry
	cellsErr  error
}

// Geometry returns the problem's cell-geometry table, building it from M
// on the first call. Safe for concurrent use. It panics on a mesh the
// kernels cannot handle; Validate reports the same condition as an error.
func (p *Problem) Geometry() *mesh.CellGeometry {
	cells, err := p.geometry()
	if err != nil {
		panic(err)
	}
	return cells
}

func (p *Problem) geometry() (*mesh.CellGeometry, error) {
	p.cellsOnce.Do(p.buildGeometry)
	return p.cells, p.cellsErr
}

func (p *Problem) buildGeometry() {
	cells, err := mesh.NewCellGeometry(p.M)
	if err != nil {
		p.cellsErr = fmt.Errorf("transport: %w", err)
		return
	}
	if nf := cells.FacesPerCell(); nf > maxKernelFaces {
		p.cellsErr = fmt.Errorf("transport: cells have %d faces, the kernels handle at most %d", nf, maxKernelFaces)
		return
	}
	p.cells = cells
}

// maxKernelFaces bounds the faces of one cell: solveStep keeps the
// outgoing ones in a uint8 bit set.
const maxKernelFaces = 8

// Validate checks internal consistency.
func (p *Problem) Validate() error {
	if p.M == nil || p.Quad == nil {
		return fmt.Errorf("transport: problem needs a mesh and a quadrature set")
	}
	if p.Groups < 1 {
		return fmt.Errorf("transport: need >= 1 energy group (got %d)", p.Groups)
	}
	if len(p.Mats) == 0 {
		return fmt.Errorf("transport: no materials")
	}
	for i, m := range p.Mats {
		if len(m.SigmaT) != p.Groups {
			return fmt.Errorf("transport: material %d (%s) has %d sigma_t groups, want %d", i, m.Name, len(m.SigmaT), p.Groups)
		}
		if m.SigmaS != nil && len(m.SigmaS) != p.Groups {
			return fmt.Errorf("transport: material %d scattering matrix has %d rows, want %d", i, len(m.SigmaS), p.Groups)
		}
		for _, row := range m.SigmaS {
			if len(row) != p.Groups {
				return fmt.Errorf("transport: material %d scattering row length %d, want %d", i, len(row), p.Groups)
			}
		}
		if m.Source != nil && len(m.Source) != p.Groups {
			return fmt.Errorf("transport: material %d source has %d groups, want %d", i, len(m.Source), p.Groups)
		}
	}
	if p.Scheme == Diamond && !p.M.Structured() {
		return fmt.Errorf("transport: diamond differencing requires a structured mesh")
	}
	cells, err := p.geometry()
	if err != nil {
		return err
	}
	for c, nc := 0, cells.NumCells(); c < nc; c++ {
		z := cells.Material(mesh.CellID(c))
		if z < 0 || z >= len(p.Mats) {
			return fmt.Errorf("transport: cell %d references material zone %d outside [0,%d)", c, z, len(p.Mats))
		}
	}
	return nil
}

// MaxFaces returns the per-cell face count (6 structured, 4 tets).
func (p *Problem) MaxFaces() int { return p.Geometry().FacesPerCell() }

// Mat returns the material of a cell.
func (p *Problem) Mat(c mesh.CellID) *Material { return &p.Mats[p.Geometry().Material(c)] }

// SolveCell computes the angular flux of one cell for one direction and
// all groups, given the incoming face fluxes.
//
//	qCell  — total emission density per group [n/cm³/s/sr] (fixed source +
//	         scattering, already divided by 4π)
//	psiIn  — incoming angular flux per [face*Groups+g]; entries for
//	         outgoing or boundary faces are ignored
//	psiOut — filled with outgoing angular flux per [face*Groups+g];
//	         incoming faces are left untouched
//	psiBar — filled with the cell-average angular flux per group
func (p *Problem) SolveCell(c mesh.CellID, omega geom.Vec3, qCell, psiIn, psiOut, psiBar []float64) {
	cells := p.Geometry()
	faces, vol := cells.Faces(c), cells.Volume(c)
	sigmaT := p.Mats[cells.Material(c)].SigmaT
	switch p.Scheme {
	case Diamond:
		solveDiamond(faces, vol, sigmaT, omega, qCell, psiIn, psiOut, psiBar)
	default:
		solveStep(faces, vol, sigmaT, omega, qCell, psiIn, psiOut, psiBar)
	}
}

// solveStep implements the fully-upwind finite-volume balance:
//
//	ψ_c = (q·V + Σ_in |Ω·n|·A·ψ_in) / (σt·V + Σ_out |Ω·n|·A),  ψ_out = ψ_c.
//
// len(sigmaT) is the group count. Each face is classified once; the
// outgoing ones are remembered in a bit set (a cell has at most 8 faces)
// and filled after the division.
func solveStep(faces []mesh.FaceGeom, vol float64, sigmaT []float64, omega geom.Vec3, qCell, psiIn, psiOut, psiBar []float64) {
	G := len(sigmaT)
	for g := 0; g < G; g++ {
		psiBar[g] = qCell[g] * vol
	}
	var outCoef float64
	var outgoing uint8
	// Grazing faces (|Ω·n| ≤ UpwindEps) carry no flow, matching the DAG
	// builder's classification.
	for f := range faces {
		face := &faces[f]
		dot := omega.Dot(face.Normal)
		if dot > mesh.UpwindEps {
			outCoef += dot * face.Area
			outgoing |= 1 << f
		} else if dot < -mesh.UpwindEps {
			a := -dot * face.Area
			for g := 0; g < G; g++ {
				psiBar[g] += a * psiIn[f*G+g]
			}
		}
	}
	for g := 0; g < G; g++ {
		psiBar[g] /= sigmaT[g]*vol + outCoef
	}
	for f := 0; outgoing != 0; f, outgoing = f+1, outgoing>>1 {
		if outgoing&1 != 0 {
			for g := 0; g < G; g++ {
				psiOut[f*G+g] = psiBar[g]
			}
		}
	}
}

// solveDiamond implements diamond differencing on a structured grid:
//
//	ψ_c = (q·V + Σ_axes 2·|Ω_i|·A_i·ψ_in,i) / (σt·V + Σ_axes 2·|Ω_i|·A_i)
//	ψ_out,i = 2·ψ_c − ψ_in,i   (set-to-zero fixup when negative)
func solveDiamond(faces []mesh.FaceGeom, vol float64, sigmaT []float64, omega geom.Vec3, qCell, psiIn, psiOut, psiBar []float64) {
	G := len(sigmaT)
	// Identify the incoming face per axis: faces come in (lo, hi) pairs.
	type axis struct {
		inFace, outFace int
		coef            float64 // 2·|Ω_i|·A_i
	}
	var axes [3]axis
	for i := 0; i < 3; i++ {
		lo, hi := 2*i, 2*i+1
		fLo := &faces[lo]
		dot := omega.Dot(fLo.Normal) // negative when flow enters through lo
		if dot < 0 {
			axes[i] = axis{inFace: lo, outFace: hi, coef: 2 * (-dot) * fLo.Area}
		} else {
			axes[i] = axis{inFace: hi, outFace: lo, coef: 2 * dot * fLo.Area}
		}
	}
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
		psiBar[g] /= sigmaT[g]*vol + denomBase
	}
	for i := 0; i < 3; i++ {
		for g := 0; g < G; g++ {
			out := 2*psiBar[g] - psiIn[axes[i].inFace*G+g]
			if out < 0 {
				out = 0 // set-to-zero fixup
			}
			psiOut[axes[i].outFace*G+g] = out
		}
	}
}

// EmissionDensity fills q[g] with the per-steradian emission density of
// cell c given the current scalar flux: (source + Σ_g' σs[g'→g]·φ_g')/4π.
func (p *Problem) EmissionDensity(c mesh.CellID, phi [][]float64, q []float64) {
	mat := p.Mat(c)
	for g := 0; g < p.Groups; g++ {
		v := 0.0
		if mat.Source != nil {
			v = mat.Source[g]
		}
		if mat.SigmaS != nil {
			for gp := 0; gp < p.Groups; gp++ {
				v += mat.SigmaS[gp][g] * phi[gp][c]
			}
		}
		q[g] = v / FourPi
	}
}

// HasScattering reports whether any material scatters (needing iteration).
func (p *Problem) HasScattering() bool {
	for _, m := range p.Mats {
		for _, row := range m.SigmaS {
			for _, v := range row {
				if v != 0 {
					return true
				}
			}
		}
	}
	return false
}
