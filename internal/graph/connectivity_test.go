package graph

import (
	"testing"

	"jsweep/internal/geom"
	"jsweep/internal/mesh"
	"jsweep/internal/quadrature"
)

// The table holds for every (cell, face) slot exactly what the mesh
// reports — the neighbour and the normal of Face(c, i) — and, for an
// interior face, the first face of the neighbour that borders c.
func TestConnectivityMatchesMesh(t *testing.T) {
	for _, tc := range planCases(t) {
		c := NewConnectivity(tc.m)
		if c.NumCells() != tc.m.NumCells() {
			t.Fatalf("%s: table covers %d cells, mesh has %d", tc.name, c.NumCells(), tc.m.NumCells())
		}
		for cell := mesh.CellID(0); int(cell) < tc.m.NumCells(); cell++ {
			nf := tc.m.NumFaces(cell)
			if got := int(c.start[cell+1] - c.start[cell]); got != nf {
				t.Fatalf("%s cell %d: %d slots, %d faces", tc.name, cell, got, nf)
			}
			for i := 0; i < nf; i++ {
				f := tc.m.Face(cell, i)
				s := c.start[cell] + int32(i)
				if c.nbr[s] != f.Neighbor || c.normal[s] != f.Normal {
					t.Fatalf("%s cell %d face %d: table has neighbour %d normal %v, mesh %d %v", tc.name, cell, i, c.nbr[s], c.normal[s], f.Neighbor, f.Normal)
				}
				if f.Neighbor < 0 {
					if c.back[s] != -1 {
						t.Fatalf("%s cell %d face %d: boundary face with back face %d", tc.name, cell, i, c.back[s])
					}
					continue
				}
				for j := 0; j < int(c.back[s]); j++ {
					if tc.m.Face(f.Neighbor, j).Neighbor == cell {
						t.Fatalf("%s cell %d face %d: back face %d, but face %d of cell %d borders it first", tc.name, cell, i, c.back[s], j, f.Neighbor)
					}
				}
				if tc.m.Face(f.Neighbor, int(c.back[s])).Neighbor != cell {
					t.Fatalf("%s cell %d face %d: back face %d of cell %d does not border it", tc.name, cell, i, c.back[s], f.Neighbor)
				}
			}
		}
	}
}

// A Signature classes every slot by the sign of Ω·n against UpwindEps,
// boundary faces as none — grazing faces of an axis direction included.
func TestSignatureClasses(t *testing.T) {
	quad, err := quadrature.New(4)
	if err != nil {
		t.Fatal(err)
	}
	dirs := []geom.Vec3{{X: 1}, {X: 0.6, Y: 0.8}}
	for _, d := range quad.Directions {
		dirs = append(dirs, d.Omega)
	}
	for _, tc := range planCases(t) {
		c := NewConnectivity(tc.m)
		for _, omega := range dirs {
			sig := c.Signature(omega)
			if len(sig) != len(c.nbr) {
				t.Fatalf("%s Ω=%v: %d signs for %d slots", tc.name, omega, len(sig), len(c.nbr))
			}
			for s, nb := range c.nbr {
				want := byte(faceNone)
				if dot := omega.Dot(c.normal[s]); nb >= 0 && dot > upwindEps {
					want = faceOut
				} else if nb >= 0 && dot < -upwindEps {
					want = faceIn
				}
				if sig[s] != want {
					t.Fatalf("%s Ω=%v slot %d: sign %d, want %d", tc.name, omega, s, sig[s], want)
				}
			}
		}
	}
}
