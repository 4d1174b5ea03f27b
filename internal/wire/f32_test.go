package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"unsafe"
)

// TestF32CodecMatchesPerElement holds whichever float32 codec this target
// builds (f32_le.go or f32_portable.go) to the wire format's definition —
// each value's IEEE-754 bits, little-endian — at every byte offset into the
// buffer, since packet payloads start wherever the header and earlier
// blocks end. NaN payloads and -0.0 must survive bit for bit, through the
// decoder and through ViewF32Slice, which aliases exactly the buffers
// viewable accepts.
func TestF32CodecMatchesPerElement(t *testing.T) {
	specials := []uint32{
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x80000001, // smallest denormals
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00001, 0x7f800001, // quiet, payload-carrying and signalling NaNs
		0x3f800000, 0x01020304,
	}
	for _, n := range []int{0, 1, 7, 8, 9, 255, 256, 257} {
		vals := make([]float32, n)
		want := make([]byte, 4*n)
		for i := range vals {
			bits := specials[i%len(specials)] + uint32(i/len(specials))<<8
			vals[i] = math.Float32frombits(bits)
			binary.LittleEndian.PutUint32(want[4*i:], bits)
		}
		for off := 0; off < 8; off++ {
			buf := bytes.Repeat([]byte{0xa5}, off+4*n+3)
			PutF32Slice(buf[off:], vals)
			if !bytes.Equal(buf[off:off+4*n], want) {
				t.Fatalf("n=%d off=%d: encoded bytes differ from per-element little-endian", n, off)
			}
			for i, b := range buf {
				if (i < off || i >= off+4*n) && b != 0xa5 {
					t.Fatalf("n=%d off=%d: encode wrote outside its %d bytes (index %d)", n, off, 4*n, i)
				}
			}
			// One guard float each side shows a decode that overruns dst.
			got := make([]float32, n+2)
			got[0], got[n+1] = 42, 42
			getF32Slice(got[1:n+1], buf[off:])
			if got[0] != 42 || got[n+1] != 42 {
				t.Fatalf("n=%d off=%d: decode wrote outside dst", n, off)
			}
			viewed, _ := ViewF32Slice(buf[off:off+4*n], nil)
			aliased := n > 0 && &buf[off] == (*byte)(unsafe.Pointer(&viewed[0]))
			if len(viewed) != n || aliased != viewable(buf[off:off+4*n]) {
				t.Fatalf("n=%d off=%d: ViewF32Slice gave %d values, aliased=%v", n, off, len(viewed), aliased)
			}
			for i, v := range got[1 : n+1] {
				if math.Float32bits(v) != math.Float32bits(vals[i]) || math.Float32bits(viewed[i]) != math.Float32bits(vals[i]) {
					t.Fatalf("n=%d off=%d elem %d: decoded %#08x, viewed %#08x, want %#08x", n, off, i, math.Float32bits(v), math.Float32bits(viewed[i]), math.Float32bits(vals[i]))
				}
			}
		}
	}
}
