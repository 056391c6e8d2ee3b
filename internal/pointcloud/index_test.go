package pointcloud

import (
	"math"
	"sort"
	"testing"
	"time"

	"cooper/internal/geom"
)

func TestGridIndexRadius(t *testing.T) {
	c := FromPoints([]Point{
		{X: 0, Y: 0, Z: 0},
		{X: 0.5, Y: 0, Z: 0},
		{X: 2, Y: 0, Z: 0},
		{X: 0, Y: 0.9, Z: 0},
	})
	idx := NewGridIndex(c, 1)
	got := idx.Radius(geom.V3(0, 0, 0), 1)
	sort.Ints(got)
	want := []int{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("Radius = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Radius = %v, want %v", got, want)
		}
	}
}

func TestGridIndexRadiusMatchesBruteForce(t *testing.T) {
	c := randomCloud(500, 42)
	idx := NewGridIndex(c, 2)
	queries := []geom.Vec3{{X: 0, Y: 0, Z: 0}, {X: 10, Y: -20, Z: 1}, {X: -49, Y: 49, Z: 0}}
	for _, q := range queries {
		for _, r := range []float64{0.5, 3, 10} {
			got := idx.Radius(q, r)
			var want []int
			for i := 0; i < c.Len(); i++ {
				if c.At(i).Pos().Dist(q) <= r {
					want = append(want, i)
				}
			}
			sort.Ints(got)
			if len(got) != len(want) {
				t.Fatalf("Radius(%v, %v): got %d hits, brute force %d", q, r, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Radius(%v, %v) mismatch at %d", q, r, i)
				}
			}
		}
	}
}

func TestGridIndexNearest(t *testing.T) {
	c := FromPoints([]Point{
		{X: 0, Y: 0, Z: 0},
		{X: 10, Y: 0, Z: 0},
		{X: 0, Y: 10, Z: 0},
	})
	idx := NewGridIndex(c, 1)
	i, d := idx.Nearest(geom.V3(9, 0.5, 0))
	if i != 1 {
		t.Errorf("Nearest index = %d, want 1", i)
	}
	if math.Abs(d-math.Hypot(1, 0.5)) > 1e-12 {
		t.Errorf("Nearest dist = %v", d)
	}
}

func TestGridIndexNearestMatchesBruteForce(t *testing.T) {
	c := randomCloud(300, 43)
	idx := NewGridIndex(c, 1.5)
	queries := []geom.Vec3{{X: 1, Y: 2, Z: 0}, {X: -30, Y: 45, Z: 2}, {X: 60, Y: 60, Z: 0}}
	for _, q := range queries {
		gi, gd := idx.Nearest(q)
		bi, bd := -1, math.Inf(1)
		for i := 0; i < c.Len(); i++ {
			if d := c.At(i).Pos().Dist(q); d < bd {
				bd, bi = d, i
			}
		}
		if gi != bi && math.Abs(gd-bd) > 1e-9 {
			t.Errorf("Nearest(%v) = (%d, %v), brute force (%d, %v)", q, gi, gd, bi, bd)
		}
	}
}

func TestGridIndexNearestWithinMatchesBruteForce(t *testing.T) {
	c := randomCloud(300, 43)
	idx := NewGridIndex(c, 1.5)
	queries := []geom.Vec3{{X: 1, Y: 2, Z: 0}, {X: -30, Y: 45, Z: 2}, {X: 60, Y: 60, Z: 0}, {X: 500, Y: 500, Z: 0}}
	for _, q := range queries {
		for _, r := range []float64{0.5, 1.5, 4} {
			gi, gd := idx.NearestWithin(q, r)
			bi, bd := -1, math.Inf(1)
			for i := 0; i < c.Len(); i++ {
				if d := c.At(i).Pos().Dist(q); d < bd {
					bd, bi = d, i
				}
			}
			if bd <= r {
				// The true nearest is in range: the bounded query must
				// agree with the unbounded answer.
				if gi != bi && math.Abs(gd-bd) > 1e-9 {
					t.Errorf("NearestWithin(%v, %v) = (%d, %v), brute force (%d, %v)", q, r, gi, gd, bi, bd)
				}
			} else if gi >= 0 && gd <= r {
				// Nothing lies within r; cell granularity may surface a
				// slightly farther point but never one claiming d <= r.
				t.Errorf("NearestWithin(%v, %v) = (%d, %v) inside an empty radius", q, r, gi, gd)
			}
		}
	}
}

func TestGridIndexNearestWithinFarQueryReturnsNone(t *testing.T) {
	c := randomCloud(300, 45)
	idx := NewGridIndex(c, 1)
	if i, d := idx.NearestWithin(geom.V3(1e6, 1e6, 1e6), 2); i != -1 || !math.IsInf(d, 1) {
		t.Errorf("far NearestWithin = (%d, %v), want (-1, +Inf)", i, d)
	}
	if i, d := idx.NearestWithin(geom.V3(0, 0, 0), 0); i != -1 || !math.IsInf(d, 1) {
		t.Errorf("zero-radius NearestWithin = (%d, %v), want (-1, +Inf)", i, d)
	}
}

func TestGridIndexEmpty(t *testing.T) {
	idx := NewGridIndex(&Cloud{}, 1)
	if got := idx.Radius(geom.V3(0, 0, 0), 5); got != nil {
		t.Errorf("Radius on empty index = %v", got)
	}
	i, d := idx.Nearest(geom.V3(0, 0, 0))
	if i != -1 || !math.IsInf(d, 1) {
		t.Errorf("Nearest on empty index = (%d, %v)", i, d)
	}
}

func TestGridIndexZeroRadius(t *testing.T) {
	c := randomCloud(10, 44)
	idx := NewGridIndex(c, 1)
	if got := idx.Radius(geom.V3(0, 0, 0), 0); got != nil {
		t.Errorf("zero radius returned %v", got)
	}
}

// withDeadline runs f in a goroutine and fails the test if it has not
// returned within a few seconds, so a looping query fails instead of
// hanging the suite.
func withDeadline(t *testing.T, name string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return", name)
	}
}

// TestGridIndexQueryAtInt32KeyLimit queries next to the largest cell key.
// A sender point aligned far from the receiver lands there, and the scan
// loops must stop at the key limit instead of wrapping round it.
func TestGridIndexQueryAtInt32KeyLimit(t *testing.T) {
	edge := float64(math.MaxInt32) + 0.5
	c := FromPoints([]Point{{X: 0}, {X: 1}, {X: edge, Y: 0.25}, {X: -edge}})
	idx := NewGridIndex(c, 1)
	withDeadline(t, "NearestWithin at +limit", func() {
		if i, _ := idx.NearestWithin(geom.V3(edge, 0, 0), 1); i != 2 {
			t.Errorf("NearestWithin at +limit = %d, want 2", i)
		}
	})
	withDeadline(t, "NearestWithin at -limit", func() {
		if i, _ := idx.NearestWithin(geom.V3(-edge, 0, 0), 1); i != 3 {
			t.Errorf("NearestWithin at -limit = %d, want 3", i)
		}
	})
	withDeadline(t, "Nearest at +limit", func() {
		if i, _ := idx.Nearest(geom.V3(edge, 0, 0)); i != 2 {
			t.Errorf("Nearest at +limit = %d, want 2", i)
		}
	})
	withDeadline(t, "Radius at +limit", func() {
		if got := idx.Radius(geom.V3(edge, 0, 0), 0.4); len(got) != 1 || got[0] != 2 {
			t.Errorf("Radius at +limit = %v, want [2]", got)
		}
	})
	withDeadline(t, "Radius at -limit", func() {
		if got := idx.Radius(geom.V3(-edge, 0, 0), 0.4); len(got) != 1 || got[0] != 3 {
			t.Errorf("Radius at -limit = %v, want [3]", got)
		}
	})
}
