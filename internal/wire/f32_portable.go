//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package wire

import (
	"encoding/binary"
	"math"
)

// The float32 payload codec for targets not known to be little-endian
// (f32_le.go lists those): per-element conversion, correct on any byte
// order.

// putF32Slice writes src as little-endian float32 bits into dst, which
// must hold at least 4*len(src) bytes. Eight elements per iteration: one
// bounds check per 32 bytes.
func putF32Slice(dst []byte, src []float32) {
	for len(src) >= 8 {
		d := dst[:32]
		binary.LittleEndian.PutUint32(d[0:], math.Float32bits(src[0]))
		binary.LittleEndian.PutUint32(d[4:], math.Float32bits(src[1]))
		binary.LittleEndian.PutUint32(d[8:], math.Float32bits(src[2]))
		binary.LittleEndian.PutUint32(d[12:], math.Float32bits(src[3]))
		binary.LittleEndian.PutUint32(d[16:], math.Float32bits(src[4]))
		binary.LittleEndian.PutUint32(d[20:], math.Float32bits(src[5]))
		binary.LittleEndian.PutUint32(d[24:], math.Float32bits(src[6]))
		binary.LittleEndian.PutUint32(d[28:], math.Float32bits(src[7]))
		dst = dst[32:]
		src = src[8:]
	}
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

// getF32Slice fills dst from little-endian float32 bits in src, which
// must hold at least 4*len(dst) bytes.
func getF32Slice(dst []float32, src []byte) {
	for len(dst) >= 8 {
		s := src[:32]
		dst[0] = math.Float32frombits(binary.LittleEndian.Uint32(s[0:]))
		dst[1] = math.Float32frombits(binary.LittleEndian.Uint32(s[4:]))
		dst[2] = math.Float32frombits(binary.LittleEndian.Uint32(s[8:]))
		dst[3] = math.Float32frombits(binary.LittleEndian.Uint32(s[12:]))
		dst[4] = math.Float32frombits(binary.LittleEndian.Uint32(s[16:]))
		dst[5] = math.Float32frombits(binary.LittleEndian.Uint32(s[20:]))
		dst[6] = math.Float32frombits(binary.LittleEndian.Uint32(s[24:]))
		dst[7] = math.Float32frombits(binary.LittleEndian.Uint32(s[28:]))
		dst = dst[8:]
		src = src[32:]
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// viewable reports whether payloads in b can be viewed in place: never
// on these targets, so the view decoders always copy and viewF32/viewU32
// are not reached.
func viewable([]byte) bool { return false }

func viewF32([]byte) []float32 { return nil }

func viewU32([]byte) []uint32 { return nil }
