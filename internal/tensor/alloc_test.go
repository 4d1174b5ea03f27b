package tensor

import "testing"

// The block-merge kernel is the aggregator's per-packet inner loop; it
// must never allocate.

func TestAddBlockZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	d := NewDense(1 << 12)
	src := make([]float32, 256)
	for i := range src {
		src[i] = float32(i)
	}
	allocs := testing.AllocsPerRun(100, func() {
		d.AddBlock(512, src)
	})
	if allocs != 0 {
		t.Fatalf("AddBlock: %v allocs/op, want 0", allocs)
	}
}

func TestAddF32Unrolled(t *testing.T) {
	// Exercise every remainder-length path of the 4-way unroll.
	for n := 0; n <= 17; n++ {
		dst := make([]float32, n)
		src := make([]float32, n)
		want := make([]float32, n)
		for i := 0; i < n; i++ {
			dst[i] = float32(i)
			src[i] = float32(10 * i)
			want[i] = float32(i) + float32(10*i)
		}
		AddF32(dst, src)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("n=%d elem %d: got %v want %v", n, i, dst[i], want[i])
			}
		}
	}
	// dst longer than src: only the src prefix is touched.
	dst := []float32{1, 1, 1, 1, 1, 1}
	AddF32(dst, []float32{1, 2, 3})
	if dst[0] != 2 || dst[1] != 3 || dst[2] != 4 || dst[3] != 1 {
		t.Fatalf("prefix add wrong: %v", dst)
	}
}

// FromDense is the dense-to-sparse conversion inside every AGsparse op:
// the COO and its exactly sized Keys and Values are its only allocations,
// however many non-zeros there are.
func TestFromDenseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	d := NewDense(1 << 12)
	for i := 0; i < d.Len(); i += 3 {
		d.Data[i] = float32(i) + 1
	}
	var s *COO
	allocs := testing.AllocsPerRun(20, func() { s = FromDense(d) })
	if allocs != 3 {
		t.Fatalf("FromDense: %v allocs/op, want 3", allocs)
	}
	if n := (d.Len() + 2) / 3; s.Len() != n || cap(s.Keys) != n || cap(s.Values) != n {
		t.Fatalf("FromDense: %d pairs in %d/%d capacity, want %d exactly", s.Len(), cap(s.Keys), cap(s.Values), n)
	}
}
