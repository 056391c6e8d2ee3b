package spod

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceMinAreaYaw is the closeness search as it stood with per-call
// trig and math.Min/math.Max: the exactness oracle for minAreaYaw.
func (cp clusterPoints) referenceMinAreaYaw() float64 {
	n := cp.len()
	if n < 2 {
		return 0
	}
	stride := 1
	if n > 512 {
		stride = n / 512
	}
	const steps = 60
	bestYaw, bestScore := 0.0, math.Inf(-1)
	for i := 0; i < steps; i++ {
		yaw := float64(i) * (math.Pi / 2) / steps
		c1, s1 := math.Cos(yaw), math.Sin(yaw)
		lo1, hi1 := math.Inf(1), math.Inf(-1)
		lo2, hi2 := math.Inf(1), math.Inf(-1)
		for j := 0; j < n; j += stride {
			u := c1*cp.xs[j] + s1*cp.ys[j]
			v := -s1*cp.xs[j] + c1*cp.ys[j]
			lo1, hi1 = math.Min(lo1, u), math.Max(hi1, u)
			lo2, hi2 = math.Min(lo2, v), math.Max(hi2, v)
		}
		const d0 = 0.05
		score := 0.0
		for j := 0; j < n; j += stride {
			u := c1*cp.xs[j] + s1*cp.ys[j]
			v := -s1*cp.xs[j] + c1*cp.ys[j]
			d := math.Min(
				math.Min(u-lo1, hi1-u),
				math.Min(v-lo2, hi2-v),
			)
			score += 1 / math.Max(d, d0)
		}
		if score > bestScore {
			bestScore = score
			bestYaw = yaw
		}
	}
	return bestYaw
}

// randomCar returns n points on the visible L of a car-sized rectangle
// at (cx, cy) with heading yaw, lifted above groundZ, with range noise.
func randomCar(rng *rand.Rand, n int, cx, cy, yaw, groundZ float64) clusterPoints {
	var cp clusterPoints
	c, s := math.Cos(yaw), math.Sin(yaw)
	for i := 0; i < n; i++ {
		var lx, ly float64
		if rng.Intn(3) > 0 {
			lx, ly = rng.Float64()*3.9-1.95, -0.8 // long side
		} else {
			lx, ly = -1.95, rng.Float64()*1.6-0.8 // short face
		}
		lx += rng.NormFloat64() * 0.02
		ly += rng.NormFloat64() * 0.02
		cp.xs = append(cp.xs, cx+c*lx-s*ly)
		cp.ys = append(cp.ys, cy+s*lx+c*ly)
		cp.zs = append(cp.zs, groundZ+0.2+rng.Float64()*1.3)
	}
	return cp
}

// TestMinAreaYawMatchesReference pins the tabulated, comparison-based
// closeness search to the reference bit for bit: random clusters,
// clusters above 512 points (the stride path) and clusters with signed
// zero coordinates, where math.Min/math.Max and plain comparisons can
// pick zeros of different sign.
func TestMinAreaYawMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	check := func(name string, cp clusterPoints) {
		t.Helper()
		got, want := cp.minAreaYaw(), cp.referenceMinAreaYaw()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s (%d points): yaw %v, reference %v", name, cp.len(), got, want)
		}
	}
	for i := 0; i < 300; i++ {
		check("random car", randomCar(rng, 2+rng.Intn(400), rng.Float64()*60-30, rng.Float64()*60-30, rng.Float64()*2*math.Pi, -1.73))
		var blob clusterPoints
		for j := 2 + rng.Intn(200); j > 0; j-- {
			blob.xs = append(blob.xs, rng.NormFloat64()*2)
			blob.ys = append(blob.ys, rng.NormFloat64())
			blob.zs = append(blob.zs, rng.Float64())
		}
		check("random blob", blob)
	}
	for _, n := range []int{513, 1023, 1024, 1500, 4000} {
		check("stride", randomCar(rng, n, 12, -4, rng.Float64()*math.Pi, -1.73))
	}
	zeros := []float64{0, math.Copysign(0, -1)}
	for i := 0; i < 200; i++ {
		var cp clusterPoints
		for j := 2 + rng.Intn(40); j > 0; j-- {
			x, y := zeros[rng.Intn(2)], zeros[rng.Intn(2)]
			switch rng.Intn(3) {
			case 0: // on the x axis
				x = rng.Float64()*4 - 2
			case 1: // on the y axis
				y = rng.Float64()*2 - 1
			}
			cp.xs = append(cp.xs, x)
			cp.ys = append(cp.ys, y)
			cp.zs = append(cp.zs, 0)
		}
		check("signed zeros", cp)
	}
	check("all zeros", clusterPoints{xs: zeros, ys: []float64{zeros[1], zeros[0]}, zs: []float64{0, 0}})
}

// TestUnsplitClusterReusesClosenessYaw checks that fitting an unsplit
// cluster at the yaw splitCluster hands back yields the very candidate a
// fresh closeness search would, and that the handed-back yaw is the
// reference search's.
func TestUnsplitClusterReusesClosenessYaw(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	d := NewDefault()
	const groundZ = -1.73
	unsplit, fitted := 0, 0
	for i := 0; i < 300; i++ {
		cp := randomCar(rng, 10+rng.Intn(600), rng.Float64()*50-25, rng.Float64()*50-25, rng.Float64()*2*math.Pi, groundZ)
		parts, yaw, split := splitCluster(cp)
		if split {
			continue
		}
		unsplit++
		fresh := cp.referenceMinAreaYaw()
		if math.Float64bits(yaw) != math.Float64bits(fresh) {
			t.Fatalf("cluster %d: splitCluster yaw %v, fresh search %v", i, yaw, fresh)
		}
		got, gotOK := d.bestCandidate(parts[0], yaw, groundZ)
		want, wantOK := d.bestCandidate(cp, fresh, groundZ)
		if g, w := fmt.Sprintf("%v %+v", gotOK, got), fmt.Sprintf("%v %+v", wantOK, want); g != w {
			t.Fatalf("cluster %d: reused-yaw candidate\n  %s\nwant\n  %s", i, g, w)
		}
		if gotOK {
			fitted++
		}
	}
	if unsplit < 200 || fitted < 100 {
		t.Fatalf("only %d unsplit clusters, %d fitted: the check lost its coverage", unsplit, fitted)
	}
}
