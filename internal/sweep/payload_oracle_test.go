package sweep

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The staged payload codec the programs used before they encoded records in
// place (a faceFlux list per target, one encode pass, a closure-driven
// decode). It is kept as the test oracle for the direct encoder and the
// plain-loop decoder: same bytes out, same records in.

type faceFlux struct {
	v    int32
	face int8
	psi  []float64
}

// encodeFaceFluxes appends the packed records to dst (which may come from
// the payload pool) and returns the extended buffer.
func encodeFaceFluxes(dst []byte, groups int, fluxes []faceFlux) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(fluxes)))
	for i := range fluxes {
		f := &fluxes[i]
		dst = binary.LittleEndian.AppendUint32(dst, uint32(f.v))
		dst = append(dst, byte(f.face))
		for g := 0; g < groups; g++ {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f.psi[g]))
		}
	}
	return dst
}

// decodeFaceFluxes streams the records to sink (avoiding per-record slice
// allocation); psiScratch must have length >= groups.
func decodeFaceFluxes(buf []byte, groups int, psiScratch []float64, sink func(v int32, face int8, psi []float64)) error {
	if len(buf) < 4 {
		return fmt.Errorf("sweep: flux payload truncated")
	}
	count := binary.LittleEndian.Uint32(buf)
	off := 4
	rec := 5 + 8*groups
	if len(buf)-off != int(count)*rec {
		return fmt.Errorf("sweep: flux payload size %d != %d records of %d bytes", len(buf)-off, count, rec)
	}
	for i := uint32(0); i < count; i++ {
		v := int32(binary.LittleEndian.Uint32(buf[off:]))
		face := int8(buf[off+4])
		off += 5
		for g := 0; g < groups; g++ {
			psiScratch[g] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
		sink(v, face, psiScratch[:groups])
	}
	return nil
}

// Coarse-sweep stream payload: one coarse edge worth of face fluxes plus
// the target coarse vertex whose in-count it satisfies.
//
//	payload := cvLocal:u32 fineFluxes
func encodeCoarsePayload(dst []byte, cvLocal int32, groups int, fluxes []faceFlux) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cvLocal))
	return encodeFaceFluxes(dst, groups, fluxes)
}

func decodeCoarsePayload(buf []byte, groups int, psiScratch []float64, sink func(v int32, face int8, psi []float64)) (cvLocal int32, err error) {
	if len(buf) < 4 {
		return 0, fmt.Errorf("sweep: coarse payload truncated")
	}
	cvLocal = int32(binary.LittleEndian.Uint32(buf))
	return cvLocal, decodeFaceFluxes(buf[4:], groups, psiScratch, sink)
}
