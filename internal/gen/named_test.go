package gen

import "testing"

func TestNamed(t *testing.T) {
	r := newRand(1)
	cases := []struct {
		kind        string
		n, deg, dim int
		wantN       int
	}{
		{"regular", 50, 4, 0, 50},
		{"regular", 51, 3, 0, 52}, // odd n·d bumped to n+1
		{"hypercube", 0, 0, 5, 32},
		{"torus", 25, 0, 0, 25},
		{"torus", 4, 0, 0, 9}, // side clamped to 3
		{"cycle", 12, 0, 0, 12},
		{"circulant", 36, 0, 0, 36},
		{"rgg", 60, 0, 0, 60},
		{"margulis", 17, 0, 0, 16}, // k = ⌊√17⌋ = 4
	}
	for _, tc := range cases {
		g, err := Named(tc.kind, tc.n, tc.deg, tc.dim, r)
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		if g.N() != tc.wantN {
			t.Errorf("%s n=%d: N = %d, want %d", tc.kind, tc.n, g.N(), tc.wantN)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", tc.kind, err)
		}
		if !g.IsConnected() {
			t.Errorf("%s: disconnected", tc.kind)
		}
		if tc.kind == "regular" {
			if d, ok := g.IsRegular(); !ok || d != tc.deg {
				t.Errorf("regular n=%d: degree %d (regular=%v), want %d", tc.n, d, ok, tc.deg)
			}
		}
	}
	if _, err := Named("nope", 10, 4, 4, r); err == nil {
		t.Error("unknown kind should fail")
	}
}
