package graph

import (
	"fmt"
	"slices"
	"testing"

	"jsweep/internal/mesh"
	"jsweep/internal/meshgen"
	"jsweep/internal/partition"
	"jsweep/internal/quadrature"
)

// The stream plan a patch graph carries — Targets plus a slot per remote
// edge — must describe exactly the remote adjacency it was derived from, on
// every patch and every S4 direction of a structured, an unstructured and a
// cyclic mesh (the last with its feedback edges lagged).

type planCase struct {
	name string
	m    mesh.Mesh
	d    *mesh.Decomposition
}

func planCases(t *testing.T) []planCase {
	t.Helper()
	_, koba := structured(t, 8)
	ball, err := meshgen.Ball(6, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	ballD, err := partition.ByCount(ball, 9, partition.RCB)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := meshgen.CyclicRing(12) // a TwistedRing tilted past every S2 direction
	if err != nil {
		t.Fatal(err)
	}
	ringD, err := meshgen.AzimuthalBlocks(ring, 4)
	if err != nil {
		t.Fatal(err)
	}
	return []planCase{
		{"kobayashi", koba.Mesh, koba},
		{"ball", ball, ballD},
		{"twisted-ring", ring, ringD},
	}
}

func TestStreamPlanSlotInvariants(t *testing.T) {
	quad, err := quadrature.New(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range planCases(t) {
		laggedAngles := 0
		for a, dir := range quad.Directions {
			lagged := FeedbackEdges(tc.m, dir.Omega)
			if len(lagged) > 0 {
				laggedAngles++
			}
			graphs := BuildAllPatchGraphsLagged(tc.d, dir.Omega, int32(a), lagged)
			for p, g := range graphs {
				checkStreamPlan(t, tc, g, lagged)
				// The shared slot scratch of the all-patches build must not
				// leak from one patch into the next: a lone build agrees.
				alone := BuildPatchGraphLagged(tc.d, mesh.PatchID(p), dir.Omega, int32(a), lagged)
				if !slices.Equal(alone.Targets, g.Targets) || !slices.Equal(alone.TargetEdges, g.TargetEdges) || !slices.Equal(alone.RemoteAdj, g.RemoteAdj) {
					t.Fatalf("%s patch %d angle %d: lone build disagrees with the all-patches build", tc.name, p, a)
				}
			}
		}
		if tc.name == "twisted-ring" && laggedAngles == 0 {
			t.Fatalf("%s: no S4 direction needed lagging — the cyclic case tests nothing", tc.name)
		}
	}
}

func checkStreamPlan(t *testing.T, tc planCase, g *PatchGraph, lagged []CellEdge) {
	t.Helper()
	where := func() string { return fmt.Sprintf("%s patch %d angle %d", tc.name, g.Patch, g.Angle) }
	for i := 1; i < len(g.Targets); i++ {
		if g.Targets[i-1] >= g.Targets[i] {
			t.Fatalf("%s: Targets not strictly ascending: %v", where(), g.Targets)
		}
	}
	edges := make([]int32, len(g.Targets))
	distinct := map[mesh.PatchID]bool{}
	for i, e := range g.RemoteAdj {
		if int(e.Slot) >= len(g.Targets) {
			t.Fatalf("%s: RemoteAdj[%d] slot %d outside [0,%d)", where(), i, e.Slot, len(g.Targets))
		}
		if g.Targets[e.Slot] != e.ToPatch {
			t.Fatalf("%s: RemoteAdj[%d] slot %d is patch %d, edge goes to %d", where(), i, e.Slot, g.Targets[e.Slot], e.ToPatch)
		}
		if e.ToPatch == g.Patch {
			t.Fatalf("%s: RemoteAdj[%d] targets its own patch", where(), i)
		}
		edges[e.Slot]++
		distinct[e.ToPatch] = true
	}
	// Slot count = number of distinct downwind patches: no unused slot.
	if len(distinct) != len(g.Targets) {
		t.Fatalf("%s: %d slots for %d distinct downwind patches", where(), len(g.Targets), len(distinct))
	}
	for s, n := range edges {
		if n == 0 {
			t.Fatalf("%s: slot %d (patch %d) has no edge", where(), s, g.Targets[s])
		}
	}
	if !slices.Equal(edges, g.TargetEdges) {
		t.Fatalf("%s: TargetEdges %v, counted %v", where(), g.TargetEdges, edges)
	}
	// Lagged edges send nothing during the sweep: none may sit in the
	// adjacency the plan was built from.
	isLagged := map[[2]mesh.CellID]bool{}
	for _, e := range lagged {
		isLagged[[2]mesh.CellID{e.From, e.To}] = true
	}
	for v := range g.Cells {
		for _, e := range g.RemoteEdges(int32(v)) {
			if isLagged[[2]mesh.CellID{g.Cells[v], tc.d.Cells[e.ToPatch][e.To]}] {
				t.Fatalf("%s: lagged edge %d->%d is in the remote adjacency", where(), g.Cells[v], tc.d.Cells[e.ToPatch][e.To])
			}
		}
	}
}
