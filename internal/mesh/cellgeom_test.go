package mesh

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"jsweep/internal/geom"
)

// checkGeometry asserts the table reproduces the mesh bit for bit.
func checkGeometry(t *testing.T, m Mesh, g *CellGeometry) {
	t.Helper()
	bits := math.Float64bits
	if g.NumCells() != m.NumCells() {
		t.Fatalf("table covers %d cells, mesh has %d", g.NumCells(), m.NumCells())
	}
	for c := 0; c < m.NumCells(); c++ {
		id := CellID(c)
		if g.Material(id) != m.Material(id) || bits(g.Volume(id)) != bits(m.CellVolume(id)) {
			t.Fatalf("cell %d: material/volume %d/%v, mesh %d/%v", c, g.Material(id), g.Volume(id), m.Material(id), m.CellVolume(id))
		}
		faces := g.Faces(id)
		if len(faces) != m.NumFaces(id) {
			t.Fatalf("cell %d: %d faces, mesh %d", c, len(faces), m.NumFaces(id))
		}
		for i, fg := range faces {
			f := m.Face(id, i)
			if bits(fg.Area) != bits(f.Area) || bits(fg.Normal.X) != bits(f.Normal.X) ||
				bits(fg.Normal.Y) != bits(f.Normal.Y) || bits(fg.Normal.Z) != bits(f.Normal.Z) {
				t.Fatalf("cell %d face %d: %+v, mesh %+v", c, i, fg, f)
			}
		}
	}
}

func mustGeometry(t *testing.T, m Mesh) *CellGeometry {
	t.Helper()
	g, err := NewCellGeometry(m)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// shared reports whether all cells read one geometry row.
func shared(g *CellGeometry) bool { return g.faceStep == 0 }

// tableBytes is the table's memory footprint.
func tableBytes(g *CellGeometry) int {
	return int(unsafe.Sizeof(FaceGeom{}))*len(g.faces) + 8*len(g.vol) + 4*len(g.mat)
}

func TestCellGeometryUniformGridSharesOneRow(t *testing.T) {
	m := mustStructured(t, 4, 5, 6)
	m.SetMaterialFunc(func(c geom.Vec3) int { return int(c.X) % 3 })
	g := mustGeometry(t, m)
	checkGeometry(t, m, g)
	if !shared(g) || g.FacesPerCell() != 6 {
		t.Errorf("Shared=%v faces=%d, want one shared six-face row", shared(g), g.FacesPerCell())
	}
	if want := 4*m.NumCells() + 6*32 + 8; tableBytes(g) != want {
		t.Errorf("Bytes = %d, want %d (4 B per cell + one row)", tableBytes(g), want)
	}
}

func TestCellGeometryTetsKeepPerCellRows(t *testing.T) {
	verts := []geom.Vec3{{}, {X: 1}, {Y: 1}, {Z: 1}, {X: 1, Y: 1, Z: 1.5}}
	m, err := NewUnstructuredFromTets(verts, [][4]int32{{0, 1, 2, 3}, {1, 2, 3, 4}}, []int32{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	g := mustGeometry(t, m)
	checkGeometry(t, m, g)
	if shared(g) || g.FacesPerCell() != 4 {
		t.Errorf("Shared=%v faces=%d, want per-cell four-face rows", shared(g), g.FacesPerCell())
	}
	if want := 140 * m.NumCells(); tableBytes(g) != want {
		t.Errorf("Bytes = %d, want %d (140 B per tet)", tableBytes(g), want)
	}
}

// oddCell is a uniform grid except for one cell's volume.
type oddCell struct {
	*Structured3D
	odd CellID
}

func (m oddCell) CellVolume(c CellID) float64 {
	if c == m.odd {
		return 2 * m.Structured3D.CellVolume(c)
	}
	return m.Structured3D.CellVolume(c)
}

// The builder decides row sharing from the data: a grid whose last cell
// differs starts on the shared row and must give all earlier cells a copy.
func TestCellGeometryUnsharesOnFirstDifferingCell(t *testing.T) {
	base := mustStructured(t, 3, 3, 3)
	for _, odd := range []CellID{1, 13, 26} {
		m := oddCell{base, odd}
		g := mustGeometry(t, m)
		checkGeometry(t, m, g)
		if shared(g) {
			t.Errorf("odd cell %d: table still shares one row", odd)
		}
	}
}

// raggedMesh reports one face fewer for its last cell.
type raggedMesh struct{ *Structured3D }

func (m raggedMesh) NumFaces(c CellID) int {
	if int(c) == m.NumCells()-1 {
		return 5
	}
	return m.Structured3D.NumFaces(c)
}

func TestCellGeometryRejectsVaryingFaceCount(t *testing.T) {
	g, err := NewCellGeometry(raggedMesh{mustStructured(t, 2, 2, 2)})
	if err == nil || g != nil || !strings.Contains(err.Error(), "cell 7 has 5 faces") {
		t.Fatalf("got table %v, err %v; want a face-count error naming cell 7", g, err)
	}
}
