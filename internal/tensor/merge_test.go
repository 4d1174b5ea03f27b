package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// mergeSpecials are the value bits the merge tests draw from besides
// random ones: the add kernel's specials and the NaN payloads the
// protocol's merge oracle uses (mergeValueBits there), so every special
// either suite knows meets every other on an equal key, in both orders.
var mergeSpecials = append(slices.Clone(addSpecials), 0x7fc00001, 0xffc00abc, 0x7f800003)

// mergeKeyBases are where generated runs start: at 0, just below 2^31,
// where int32 order and the merge's unsigned order part ways, and near
// the top of the unsigned range.
var mergeKeyBases = []uint32{0, 1<<31 - 700, 1<<32 - 2800}

// mergeCase is one pair of runs for the merge kernels.
type mergeCase struct {
	name   string
	ak, bk []int32
	av, bv []float32
}

// walkKeys returns n strictly ascending keys from base, each 1 to gap
// above the one before, skipping skip (pass base-1 to skip nothing).
func walkKeys(rng *rand.Rand, n int, base uint32, gap int, skip uint32) []int32 {
	out := make([]int32, 0, n)
	for k := base; len(out) < n; k += 1 + uint32(rng.Intn(gap)) {
		if k != skip {
			out = append(out, int32(k))
		}
	}
	return out
}

// mergeValues returns n values, half from mergeSpecials, half random bits.
func mergeValues(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		if rng.Intn(2) == 0 {
			v[i] = math.Float32frombits(mergeSpecials[rng.Intn(len(mergeSpecials))])
		} else {
			v[i] = math.Float32frombits(rng.Uint32())
		}
	}
	return v
}

// mergeCases returns the shapes of runs the kernel must get right for na
// and nb pairs: interleaved runs whose keys collide (split at a pivot key
// that is in b, or not), b wholly above the pivot or wholly below it,
// runs that do not overlap at all, in either order, and, for na == nb,
// runs of the same keys.
func mergeCases(rng *rand.Rand, na, nb int) []mergeCase {
	base := mergeKeyBases[rng.Intn(len(mergeKeyBases))]
	ak := walkKeys(rng, na, base, 3, base-1)
	pivot, above := base, base // a's middle key, and a key past a
	if na > 0 {
		pivot = uint32(ak[na/2])
		above = uint32(ak[na-1]) + 1
	}
	var cs []mergeCase
	add := func(name string, bk []int32) {
		cs = append(cs, mergeCase{name: name, ak: ak, bk: bk})
	}
	bk := walkKeys(rng, nb, base, 3, base-1)
	if i := lowerBound(bk, pivot); na > 0 && i < nb {
		bk[i] = int32(pivot)
	}
	add("pivot in b", bk)
	add("pivot not in b", walkKeys(rng, nb, base, 3, pivot))
	add("pivot below b", walkKeys(rng, nb, pivot+1, 2, pivot))
	if pivot >= base+uint32(nb) {
		add("pivot above b", walkKeys(rng, nb, pivot-uint32(nb), 1, pivot))
	}
	add("b above a", walkKeys(rng, nb, above, 3, above-1))
	if base >= uint32(3*nb) {
		add("b below a", walkKeys(rng, nb, base-uint32(3*nb), 2, base))
	}
	if na == nb {
		add("same keys", slices.Clone(ak))
	}
	for i := range cs {
		cs[i].av, cs[i].bv = mergeValues(rng, na), mergeValues(rng, len(cs[i].bk))
	}
	return cs
}

// mergeAgainstGo runs merge and mergeRunsGo on c into outputs with spare
// room after them, and reports where they part ways: the count, a key or
// a value's bits, or a write past mk[:n] and mv[:n] (the kernel may use
// what follows the merged pairs as scratch). The Go loop's output
// must itself be strictly ascending and contain every key of both runs.
func mergeAgainstGo(c mergeCase, merge func(mk []int32, mv []float32, ak []int32, av []float32, bk []int32, bv []float32) int) error {
	n := len(c.ak) + len(c.bk)
	const spare = 4
	run := func(f func(mk []int32, mv []float32, ak []int32, av []float32, bk []int32, bv []float32) int) (int, []int32, []float32) {
		mk, mv := make([]int32, n+spare), make([]float32, n+spare)
		for i := range mk {
			mk[i], mv[i] = -7, math.Float32frombits(0x7fc0dead)
		}
		o := f(mk[:n], mv[:n], c.ak, c.av, c.bk, c.bv)
		return o, mk, mv
	}
	wo, wk, wv := run(mergeRunsGo)
	seen := map[int32]bool{}
	for i, k := range wk[:wo] {
		if i > 0 && uint32(k) <= uint32(wk[i-1]) {
			return fmt.Errorf("Go merge: key %d after %d", uint32(k), uint32(wk[i-1]))
		}
		seen[k] = true
	}
	for _, k := range append(slices.Clone(c.ak), c.bk...) {
		if !seen[k] {
			return fmt.Errorf("Go merge: key %d missing", uint32(k))
		}
	}
	o, gk, gv := run(merge)
	if o != wo {
		return fmt.Errorf("%d pairs, Go %d", o, wo)
	}
	for i := range gk {
		if i >= o && i < n {
			continue
		}
		if gk[i] != wk[i] || math.Float32bits(gv[i]) != math.Float32bits(wv[i]) {
			return fmt.Errorf("pair %d of %d: (%d, %#08x), Go (%d, %#08x)", i, o, uint32(gk[i]), math.Float32bits(gv[i]), uint32(wk[i]), math.Float32bits(wv[i]))
		}
	}
	return nil
}

// TestMergeRunsMatchesGo holds the kernel (merge_amd64.s on amd64, the Go
// loop elsewhere) to mergeRunsGo bit for bit, at every length 0-300 of
// either run against lengths 0-300 of the other, on every shape of
// mergeCases and keys on both sides of 2^31, with values from the
// specials, so that every special meets every other on equal keys. Both
// MergeRuns and the kernel called directly (below mergeSplitMin too) are
// checked.
func TestMergeRunsMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var shapes [][2]int
	for n := 0; n <= 300; n++ {
		shapes = append(shapes, [2]int{n, rng.Intn(301)}, [2]int{rng.Intn(301), n}, [2]int{n, n}, [2]int{n, 300 - n})
	}
	for na := 0; na <= 24; na++ {
		for nb := 0; nb <= 24; nb++ {
			shapes = append(shapes, [2]int{na, nb})
		}
	}
	cases := 0
	for _, s := range shapes {
		for _, c := range mergeCases(rng, s[0], s[1]) {
			for name, merge := range map[string]func([]int32, []float32, []int32, []float32, []int32, []float32) int{
				"kernel": mergeRunsKernel, "MergeRuns": MergeRuns,
			} {
				if err := mergeAgainstGo(c, merge); err != nil {
					t.Fatalf("%s, %d+%d pairs, %s: %v", name, len(c.ak), len(c.bk), c.name, err)
				}
			}
			cases++
		}
	}
	k := len(mergeSpecials)
	c := mergeCase{name: "every special pair", ak: make([]int32, k*k), bk: make([]int32, k*k), av: make([]float32, k*k), bv: make([]float32, k*k)}
	for i := range c.ak {
		c.ak[i], c.bk[i] = int32(i), int32(i)
		c.av[i], c.bv[i] = math.Float32frombits(mergeSpecials[i/k]), math.Float32frombits(mergeSpecials[i%k])
	}
	if err := mergeAgainstGo(c, mergeRunsKernel); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	t.Logf("%d pairs of runs", cases)
}

// FuzzMergeRuns holds the kernel to mergeRunsGo on runs built from bytes:
// where the keys start (mergeKeyBases), then per pair which run it goes
// to (or both, an equal key), the gap to the next key and the values'
// bits, little-endian.
func FuzzMergeRuns(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{2, 0, 0, 0xc0, 0x7f, 1, 0, 0xc0, 0xff, 0, 1, 0, 0, 0x80, 0x3f, 0, 0, 0, 0x80})
	f.Add(uint8(2), make([]byte, 9*100))
	f.Fuzz(func(t *testing.T, base uint8, raw []byte) {
		k := mergeKeyBases[int(base)%len(mergeKeyBases)]
		var c mergeCase
		for ; len(raw) >= 9; raw = raw[9:] {
			va := math.Float32frombits(binary.LittleEndian.Uint32(raw[1:]))
			vb := math.Float32frombits(binary.LittleEndian.Uint32(raw[5:]))
			if raw[0]%3 != 1 {
				c.ak, c.av = append(c.ak, int32(k)), append(c.av, va)
			}
			if raw[0]%3 != 0 {
				c.bk, c.bv = append(c.bk, int32(k)), append(c.bv, vb)
			}
			step := 1 + uint32(raw[0]>>2)
			if k > math.MaxUint32-step {
				break
			}
			k += step
		}
		if err := mergeAgainstGo(c, mergeRunsKernel); err != nil {
			t.Fatalf("%d+%d pairs: %v", len(c.ak), len(c.bk), err)
		}
	})
}
