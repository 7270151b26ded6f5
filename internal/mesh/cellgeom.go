package mesh

import (
	"fmt"
	"math"

	"jsweep/internal/geom"
)

// FaceGeom is what a transport kernel reads of one cell face: the outward
// unit normal and the area. Connectivity (Face.Neighbor) is the sweep
// graph's business and is not stored.
type FaceGeom struct {
	Normal geom.Vec3
	Area   float64
}

// CellGeometry is a flat, immutable, angle-independent copy of the numbers
// the transport kernels read per cell — volume, material zone, and every
// face's outward normal and area — so the sweep inner loop touches plain
// slices instead of calling Mesh through its interface for every
// (cell, angle, face). Values are copied bit for bit from the mesh, so a
// kernel computing from the table is bitwise identical to one walking the
// mesh.
//
// Memory is O(cells): 4 B per cell for the material zone plus, per cell,
// one FaceGeom (32 B) per face and 8 B of volume — 140 B for a tet. When
// every cell has bitwise the same faces and volume (a uniform structured
// grid) one shared row serves all cells and the table shrinks to 4 B per
// cell; the builder finds that out by comparing the rows, not by asking
// the mesh what kind it is.
//
// The table is a snapshot: mutating the mesh (SetMaterialFunc) after it
// was built is not seen.
type CellGeometry struct {
	nf int // faces per cell
	// faceStep and volStep are the distances between consecutive cells'
	// entries in faces and vol: nf and 1, or both 0 for the shared row.
	faceStep, volStep int
	faces             []FaceGeom
	vol               []float64
	mat               []int32
}

// NewCellGeometry builds the table in one pass over cells × faces. Every
// cell must have the same face count (both mesh families do); a mesh
// whose cells differ is an error.
func NewCellGeometry(m Mesh) (*CellGeometry, error) {
	n := m.NumCells()
	g := &CellGeometry{mat: make([]int32, n)}
	if n == 0 {
		return g, nil
	}
	nf := m.NumFaces(0)
	g.nf = nf
	row := make([]FaceGeom, nf)
	for c := 0; c < n; c++ {
		id := CellID(c)
		if got := m.NumFaces(id); got != nf {
			return nil, fmt.Errorf("mesh: cell %d has %d faces, cell 0 has %d; CellGeometry needs a constant face count", c, got, nf)
		}
		g.mat[c] = int32(m.Material(id))
		for i := range row {
			f := m.Face(id, i)
			row[i] = FaceGeom{Normal: f.Normal, Area: f.Area}
		}
		vol := m.CellVolume(id)
		if c > 0 && g.faceStep == 0 {
			if sameRow(row, vol, g.faces, g.vol[0]) {
				continue
			}
			// First cell that differs from cell 0: give every cell seen so
			// far its own copy of the shared row and store rows from here on.
			faces := make([]FaceGeom, 0, n*nf)
			vols := make([]float64, 0, n)
			for i := 0; i < c; i++ {
				faces = append(faces, g.faces...)
				vols = append(vols, g.vol[0])
			}
			g.faces, g.vol = faces, vols
			g.faceStep, g.volStep = nf, 1
		}
		g.faces = append(g.faces, row...)
		g.vol = append(g.vol, vol)
	}
	return g, nil
}

// sameRow reports whether two cells' kernel inputs are bitwise equal
// (bit patterns, not ==: a -0 normal component must not merge with +0).
func sameRow(a []FaceGeom, aVol float64, b []FaceGeom, bVol float64) bool {
	if math.Float64bits(aVol) != math.Float64bits(bVol) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.Normal.X) != math.Float64bits(y.Normal.X) ||
			math.Float64bits(x.Normal.Y) != math.Float64bits(y.Normal.Y) ||
			math.Float64bits(x.Normal.Z) != math.Float64bits(y.Normal.Z) ||
			math.Float64bits(x.Area) != math.Float64bits(y.Area) {
			return false
		}
	}
	return true
}

// NumCells returns the number of cells the table covers.
func (g *CellGeometry) NumCells() int { return len(g.mat) }

// FacesPerCell returns the face count every cell has.
func (g *CellGeometry) FacesPerCell() int { return g.nf }

// Faces returns cell c's faces in the mesh's face order. Read-only.
func (g *CellGeometry) Faces(c CellID) []FaceGeom {
	o := int(c) * g.faceStep
	return g.faces[o : o+g.nf : o+g.nf]
}

// Volume returns the volume of cell c.
func (g *CellGeometry) Volume(c CellID) float64 { return g.vol[int(c)*g.volStep] }

// Material returns the material zone id of cell c.
func (g *CellGeometry) Material(c CellID) int { return int(g.mat[c]) }
