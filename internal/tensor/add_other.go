//go:build !amd64

package tensor

// addF32 is AddF32's kernel; only amd64 has an assembly one.
func addF32(dst, src []float32) { addF32Go(dst, src) }
