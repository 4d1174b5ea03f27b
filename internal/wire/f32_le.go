//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package wire

import "unsafe"

// The float32 payload codec for little-endian targets. The wire format is
// little-endian IEEE-754 bits, which is exactly how these targets hold a
// []float32 in memory, so encode and decode are one memmove through a byte
// view of the float slice. The target list is closed on purpose: a target
// not named here builds f32_portable.go, which is correct on any byte
// order.

// f32Bytes returns the 4*len(v) bytes backing v. v must be non-empty.
func f32Bytes(v []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
}

// putF32Slice writes src as little-endian float32 bits into dst, which
// must hold at least 4*len(src) bytes.
func putF32Slice(dst []byte, src []float32) {
	if len(src) > 0 {
		copy(dst[:4*len(src)], f32Bytes(src))
	}
}

// getF32Slice fills dst from little-endian float32 bits in src, which
// must hold at least 4*len(dst) bytes.
func getF32Slice(dst []float32, src []byte) {
	if len(dst) > 0 {
		copy(f32Bytes(dst), src[:4*len(dst)])
	}
}

// The decoders' views: on these targets a 4-byte-aligned run of wire
// payload bytes is already a []float32 (or []uint32) in memory, so a
// decoded packet can point into the message buffer.

// viewable reports whether payloads at 4-byte offsets in b can be viewed
// in place: b must itself be 4-byte aligned. An empty b has none.
func viewable(b []byte) bool {
	return len(b) > 0 && uintptr(unsafe.Pointer(&b[0]))%4 == 0
}

// viewF32 returns b, non-empty, 4-byte aligned and a multiple of four
// long, as the float32s it encodes, capped at its length so an append can
// never write into the message.
func viewF32(b []byte) []float32 {
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// viewU32 is viewF32 for uint32 keys.
func viewU32(b []byte) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}
