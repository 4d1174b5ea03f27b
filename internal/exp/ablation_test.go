package exp

import "testing"

func TestAblationStreams(t *testing.T) {
	tb := AblationStreams(fastOpts())
	if tb.Rows() != 8 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	// More streams must help (or at least not hurt) until saturation:
	// 32 streams beats 1 stream clearly.
	one := cell(t, tb, 0, 1)
	many := cell(t, tb, 5, 1)
	if many >= one {
		t.Errorf("32 streams (%v ms) should beat 1 stream (%v ms)", many, one)
	}
	// Past saturation the curve flattens: 128 vs 64 within 25%.
	s64, s128 := cell(t, tb, 6, 1), cell(t, tb, 7, 1)
	if d := s128/s64 - 1; d > 0.25 || d < -0.25 {
		t.Errorf("streams curve not saturating: 64->%v, 128->%v", s64, s128)
	}
}

func TestAblationFusionWidth(t *testing.T) {
	tb := AblationFusionWidth(fastOpts())
	if tb.Rows() != 6 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	// Dense data: width 8 should beat width 1 (metadata/CPU amortized).
	w1 := cell(t, tb, 0, 1)
	w8 := cell(t, tb, 3, 1)
	if w8 >= w1 {
		t.Errorf("width 8 (%v) should beat width 1 (%v) on dense data", w8, w1)
	}
}

func TestAblationAggregators(t *testing.T) {
	tb := AblationAggregators(fastOpts())
	// Dense data: 8 shards much faster than 1 (aggregator NIC bottleneck).
	one := cell(t, tb, 0, 1)
	eight := cell(t, tb, 3, 1)
	if eight >= one/2 {
		t.Errorf("8 shards (%v) should be far faster than 1 (%v) on dense data", eight, one)
	}
}

func TestAblationColocation(t *testing.T) {
	tb := AblationColocation(fastOpts())
	// Dense: colocated ~2x dedicated. High sparsity: near parity (§6.1).
	d0, c0 := cell(t, tb, 0, 1), cell(t, tb, 0, 2)
	if c0 < d0*1.5 {
		t.Errorf("dense colocated %v should be ~2x dedicated %v", c0, d0)
	}
	dHi, cHi := cell(t, tb, 4, 1), cell(t, tb, 4, 2)
	if cHi > dHi*1.6 {
		t.Errorf("sparse colocated %v should approach dedicated %v", cHi, dHi)
	}
}

func TestLiveComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tb := LiveComparison(Options{Seed: 1})
	if tb.Rows() != 4 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	// Blocks sent must not grow with sparsity, must track it at 90% (the
	// rows are block sparsity), and must clearly shrink by 99.9%.
	prev := cell(t, tb, 0, 4)
	for r := 1; r < 4; r++ {
		b := cell(t, tb, r, 4)
		if b > prev {
			t.Errorf("row %d: blocks %v grew from %v", r, b, prev)
		}
		prev = b
	}
	if dense, s90 := cell(t, tb, 0, 4), cell(t, tb, 1, 4); s90 > 0.15*dense {
		t.Errorf("90%% sparsity blocks %v above 15%% of dense %v", s90, dense)
	}
	if dense, sparse := cell(t, tb, 0, 4), cell(t, tb, 3, 4); sparse > dense/2 {
		t.Errorf("99.9%% sparsity blocks %v not far below dense %v", sparse, dense)
	}
	// At 99.9% sparsity the live OmniReduce beats live ring.
	if omni, ring := cell(t, tb, 3, 1), cell(t, tb, 3, 2); omni >= ring {
		t.Errorf("live omni %v not faster than ring %v at 99.9%%", omni, ring)
	}
}
