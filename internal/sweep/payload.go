// Package sweep implements the paper's new parallel Sn sweep algorithm
// (§V) as a component on the patch-centric abstraction: the patch-program
// of Listing 1 with vertex clustering, two-level priorities and patch-angle
// parallelism, the coarsened-graph fast path (§V-E), and the serial
// reference executor used for validation.
package sweep

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Fine-sweep stream payload: the per-edge face fluxes crossing a patch
// boundary, aggregated per target program by vertex clustering (§V-C).
//
//	payload := count:u32 { dstV:u32 dstFace:u8 psi:f64×G }*count

// faceFluxRecordBytes is the wire size of one face-flux record.
func faceFluxRecordBytes(groups int) int { return 5 + 8*groups }

// StreamPayloadBytes returns the encoded payload size of a sweep stream
// carrying `records` face-flux records for `groups` energy groups. The
// runtime's message aggregation uses it to size batch byte limits from
// the expected per-stream payload.
func StreamPayloadBytes(records, groups int) int {
	return 4 + records*faceFluxRecordBytes(groups)
}

// appendFaceFlux appends one record — destination vertex, destination face,
// psi[0:G] — to an in-progress payload. Programs call it at the edge, so a
// flux goes from the kernel's output straight into the bytes that travel.
func appendFaceFlux(dst []byte, v int32, face int8, psi []float64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	dst = append(dst, byte(face))
	for _, x := range psi {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// fluxRecordCount validates the framing of a fine payload (or of the record
// part of a coarse one) and returns its record count.
func fluxRecordCount(buf []byte, groups int) (int, error) {
	if len(buf) < 4 {
		return 0, fmt.Errorf("sweep: flux payload truncated")
	}
	count := binary.LittleEndian.Uint32(buf)
	rec := faceFluxRecordBytes(groups)
	if len(buf)-4 != int(count)*rec {
		return 0, fmt.Errorf("sweep: flux payload size %d != %d records of %d bytes", len(buf)-4, count, rec)
	}
	return int(count), nil
}

// scatterFaceFlux decodes the record at the head of rec into its slot of
// psiFace ([v*maxFaces*G + face*G + g]) and returns the destination vertex.
func scatterFaceFlux(rec []byte, groups, maxFaces int, psiFace []float64) int32 {
	v := int32(binary.LittleEndian.Uint32(rec))
	base := (int(v)*maxFaces + int(int8(rec[4]))) * groups
	dst := psiFace[base : base+groups]
	rec = rec[5:]
	for g := range dst {
		dst[g] = math.Float64frombits(binary.LittleEndian.Uint64(rec[8*g:]))
	}
	return v
}

// Coarse-sweep stream payload: one coarse edge worth of face fluxes plus
// the target coarse vertex whose in-count it satisfies, as its index in the
// receiving program's coarse-vertex list.
//
//	payload := localIndex:u32 fineFluxes
const coarseHeaderBytes = 4
