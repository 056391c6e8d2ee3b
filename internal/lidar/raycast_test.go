package lidar

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cooper/internal/geom"
)

func TestIntersectBoxHeadOn(t *testing.T) {
	box := geom.NewBox(geom.V3(10, 0, 1), 4, 2, 2, 0)
	ray := Ray{Origin: geom.V3(0, 0, 1), Dir: geom.V3(1, 0, 0)}
	tt, ok := IntersectBox(ray, box)
	if !ok {
		t.Fatal("head-on ray missed box")
	}
	if math.Abs(tt-8) > 1e-12 {
		t.Errorf("hit at t=%v, want 8 (front face)", tt)
	}
}

func TestIntersectBoxMiss(t *testing.T) {
	box := geom.NewBox(geom.V3(10, 0, 1), 4, 2, 2, 0)
	cases := []Ray{
		{Origin: geom.V3(0, 0, 1), Dir: geom.V3(-1, 0, 0)},         // away
		{Origin: geom.V3(0, 5, 1), Dir: geom.V3(1, 0, 0)},          // offset
		{Origin: geom.V3(0, 0, 10), Dir: geom.V3(1, 0, 0)},         // above
		{Origin: geom.V3(0, 0, 1), Dir: geom.V3(0, 1, 0)},          // parallel, outside
		{Origin: geom.V3(0, 0, 1), Dir: geom.V3(0.5, 1, 0).Unit()}, // angled wide
	}
	for i, r := range cases {
		if _, ok := IntersectBox(r, box); ok {
			t.Errorf("case %d: ray should miss", i)
		}
	}
}

func TestIntersectBoxRotated(t *testing.T) {
	// A box rotated 90°: its length now spans y, width spans x.
	box := geom.NewBox(geom.V3(10, 0, 1), 4, 2, 2, math.Pi/2)
	ray := Ray{Origin: geom.V3(0, 0, 1), Dir: geom.V3(1, 0, 0)}
	tt, ok := IntersectBox(ray, box)
	if !ok {
		t.Fatal("ray missed rotated box")
	}
	// Width 2 now faces the ray: front face at x = 10-1 = 9.
	if math.Abs(tt-9) > 1e-12 {
		t.Errorf("hit at t=%v, want 9", tt)
	}
	// A ray offset y=1.8 passes the rotated box's length/2 = 2: hit.
	ray2 := Ray{Origin: geom.V3(0, 1.8, 1), Dir: geom.V3(1, 0, 0)}
	if _, ok := IntersectBox(ray2, box); !ok {
		t.Error("offset ray should hit rotated box (length spans y)")
	}
}

func TestIntersectBoxFromInside(t *testing.T) {
	box := geom.NewBox(geom.V3(0, 0, 1), 4, 4, 4, 0)
	ray := Ray{Origin: geom.V3(0, 0, 1), Dir: geom.V3(1, 0, 0)}
	tt, ok := IntersectBox(ray, box)
	if !ok {
		t.Fatal("interior ray reported miss")
	}
	if math.Abs(tt-2) > 1e-12 {
		t.Errorf("interior hit at t=%v, want exit at 2", tt)
	}
}

func TestIntersectBoxHitPointOnSurface(t *testing.T) {
	f := func(ox, oy, yaw float64) bool {
		box := geom.NewBox(geom.V3(0, 0, 1), 4.2, 1.8, 1.5, math.Mod(yaw, math.Pi))
		origin := geom.V3(15+math.Mod(ox, 10), math.Mod(oy, 10), 1.2)
		dir := box.Center.Sub(origin).Unit()
		tt, ok := IntersectBox(Ray{Origin: origin, Dir: dir}, box)
		if !ok {
			return false // aiming at the centre must hit
		}
		hit := origin.Add(dir.Scale(tt))
		// Hit point must lie on the box boundary: contained in a slightly
		// inflated box but not strictly inside a deflated one.
		inflated := geom.NewBox(box.Center, box.Length+1e-6, box.Width+1e-6, box.Height+1e-6, box.Yaw)
		deflated := geom.NewBox(box.Center, box.Length-1e-6, box.Width-1e-6, box.Height-1e-6, box.Yaw)
		return inflated.Contains(hit) && !deflated.Contains(hit)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIntersectGround(t *testing.T) {
	ray := Ray{Origin: geom.V3(0, 0, 2), Dir: geom.V3(1, 0, -1).Unit()}
	tt, ok := IntersectGround(ray, 0)
	if !ok {
		t.Fatal("descending ray missed ground")
	}
	hit := ray.At(tt)
	if math.Abs(hit.Z) > 1e-12 || math.Abs(hit.X-2) > 1e-12 {
		t.Errorf("ground hit at %v, want (2,0,0)", hit)
	}

	up := Ray{Origin: geom.V3(0, 0, 2), Dir: geom.V3(0, 0, 1)}
	if _, ok := IntersectGround(up, 0); ok {
		t.Error("ascending ray should miss ground")
	}
	level := Ray{Origin: geom.V3(0, 0, 2), Dir: geom.V3(1, 0, 0)}
	if _, ok := IntersectGround(level, 0); ok {
		t.Error("horizontal ray should miss ground")
	}
}

func TestNearestHitOcclusion(t *testing.T) {
	// Two boxes in line: the nearer one must occlude the farther one.
	near := Target{Box: geom.NewBox(geom.V3(10, 0, 1), 2, 2, 2, 0), Reflectivity: 0.5, ObjectID: 1}
	far := Target{Box: geom.NewBox(geom.V3(20, 0, 1), 2, 2, 2, 0), Reflectivity: 0.5, ObjectID: 2}
	ray := Ray{Origin: geom.V3(0, 0, 1), Dir: geom.V3(1, 0, 0)}

	tt, idx, ok := newCaster(ray.Origin, []Target{far, near}, 0, 100).nearestHit(ray.Dir)
	if !ok {
		t.Fatal("no hit")
	}
	if idx != 1 {
		t.Errorf("hit target %d, want the nearer box (index 1)", idx)
	}
	if math.Abs(tt-9) > 1e-12 {
		t.Errorf("hit at t=%v, want 9", tt)
	}
}

func TestNearestHitGroundOnly(t *testing.T) {
	ray := Ray{Origin: geom.V3(0, 0, 2), Dir: geom.V3(1, 0, -0.1).Unit()}
	_, idx, ok := newCaster(ray.Origin, nil, 0, 100).nearestHit(ray.Dir)
	if !ok || idx != -1 {
		t.Errorf("expected ground hit, got idx=%d ok=%v", idx, ok)
	}
}

func TestNearestHitOutOfRange(t *testing.T) {
	box := Target{Box: geom.NewBox(geom.V3(500, 0, 1), 2, 2, 2, 0)}
	ray := Ray{Origin: geom.V3(0, 0, 1), Dir: geom.V3(1, 0, 0)}
	if _, _, ok := newCaster(ray.Origin, []Target{box}, -100, 100).nearestHit(ray.Dir); ok {
		t.Error("hit beyond max range should be discarded")
	}
}

// TestCasterMatchesBruteForceRandomRays drives the prepared, culled
// caster and the brute-force oracle with the same randomized rays,
// including the cull's edge cases: origins inside a box, rays tangent to
// a footprint edge or grazing a footprint corner, exactly vertical rays
// (Dir.X == Dir.Y == 0) and exact parameter ties between two targets.
// Hits must agree bit for bit, and IntersectBox must agree with the
// reference slab test on every ray × target pair.
func TestCasterMatchesBruteForceRandomRays(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var targets []Target
	for i := 0; i < 12; i++ {
		box := geom.NewBox(geom.V3(rng.Float64()*80-40, rng.Float64()*80-40, rng.Float64()*2),
			0.5+rng.Float64()*8, 0.5+rng.Float64()*4, 0.5+rng.Float64()*3, rng.Float64()*2*math.Pi-math.Pi)
		targets = append(targets, Target{Box: box, ObjectID: i})
	}
	// Tie cluster, clear of the random targets: index 12 and its exact
	// duplicate at 14 share every face; 13 shares their near x face, so a
	// ray entering through that face meets all three at the same t.
	tie := geom.NewBox(geom.V3(100, 100, 1), 4, 2, 2, 0)
	targets = append(targets,
		Target{Box: tie, ObjectID: 12},
		Target{Box: geom.NewBox(geom.V3(100, 100.5, 1.5), 4, 3, 3, 0), ObjectID: 13},
		Target{Box: tie, ObjectID: 14},
	)
	const maxRange = 120
	grounds := []float64{-1.73, 0, -500}

	randDir := func() geom.Vec3 {
		for {
			d := geom.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
			if n := d.Norm(); n > 1e-9 {
				return d.Scale(1 / n)
			}
		}
	}
	// local maps a point in target k's box frame to the world.
	local := func(k int, x, y, z float64) geom.Vec3 {
		b := targets[k].Box
		c, s := math.Cos(b.Yaw), math.Sin(b.Yaw)
		return geom.V3(b.Center.X+c*x-s*y, b.Center.Y+s*x+c*y, b.Center.Z+z)
	}
	localDir := func(k int, x, y, z float64) geom.Vec3 {
		c, s := math.Cos(targets[k].Box.Yaw), math.Sin(targets[k].Box.Yaw)
		return geom.V3(c*x-s*y, s*x+c*y, z).Unit()
	}

	check := func(kind string, r Ray) (float64, int, bool) {
		t.Helper()
		groundZ := grounds[rng.Intn(len(grounds))]
		wt, wi, wok := bruteNearestHit(r, targets, groundZ, maxRange)
		gt, gi, gok := newCaster(r.Origin, targets, groundZ, maxRange).nearestHit(r.Dir)
		if math.Float64bits(gt) != math.Float64bits(wt) || gi != wi || gok != wok {
			t.Fatalf("%s ray %+v: got (%v, %d, %v), want (%v, %d, %v)", kind, r, gt, gi, gok, wt, wi, wok)
		}
		for k := range targets {
			gt, gok := IntersectBox(r, targets[k].Box)
			wt, wok := referenceIntersectBox(r, targets[k].Box)
			if math.Float64bits(gt) != math.Float64bits(wt) || gok != wok {
				t.Fatalf("%s ray %+v, box %d: IntersectBox (%v, %v), reference (%v, %v)", kind, r, k, gt, gok, wt, wok)
			}
		}
		return wt, wi, wok
	}

	for i := 0; i < 20000; i++ {
		check("random", Ray{Origin: geom.V3(rng.Float64()*100-50, rng.Float64()*100-50, rng.Float64()*4-0.5), Dir: randDir()})
	}
	for i := 0; i < 5000; i++ {
		k := rng.Intn(len(targets))
		b := targets[k].Box
		o := local(k, (rng.Float64()-0.5)*0.9*b.Length, (rng.Float64()-0.5)*0.9*b.Width, (rng.Float64()-0.5)*0.9*b.Height)
		if _, _, ok := check("inside", Ray{Origin: o, Dir: randDir()}); !ok {
			t.Fatalf("ray from inside box %d reported no hit", k)
		}
	}
	for i := 0; i < 5000; i++ {
		var o geom.Vec3
		if k := rng.Intn(2 * len(targets)); k < len(targets) {
			b := targets[k].Box
			o = local(k, (rng.Float64()-0.5)*b.Length, (rng.Float64()-0.5)*b.Width, 3+rng.Float64()*3)
		} else {
			o = geom.V3(rng.Float64()*100-50, rng.Float64()*100-50, rng.Float64()*4)
		}
		dz := 1.0
		if rng.Intn(2) == 0 {
			dz = -1
		}
		check("vertical", Ray{Origin: o, Dir: geom.V3(0, 0, dz)})
	}
	for i := 0; i < 5000; i++ {
		k := rng.Intn(len(targets))
		b := targets[k].Box
		hl, hw := b.Length/2, b.Width/2
		side := float64(1 - 2*rng.Intn(2))
		dz := (rng.Float64() - 0.5) * 0.2
		z := (rng.Float64() - 0.5) * b.Height
		switch rng.Intn(3) {
		case 0: // along a long edge of the footprint
			check("edge", Ray{Origin: local(k, -hl-1-rng.Float64()*20, side*hw, z), Dir: localDir(k, 1, 0, dz)})
		case 1: // along a short edge
			check("edge", Ray{Origin: local(k, side*hl, -hw-1-rng.Float64()*20, z), Dir: localDir(k, 0, 1, dz)})
		default: // tangent to the bounding circle at a corner
			r := math.Hypot(hl, hw)
			nx, ny := side*hl/r, hw/r
			back := 1 + rng.Float64()*20
			check("corner", Ray{Origin: local(k, nx*r+ny*back, ny*r-nx*back, z), Dir: localDir(k, -ny, nx, dz)})
		}
	}
	for i := 0; i < 2000; i++ {
		o := geom.V3(90-rng.Float64()*5, 100+(rng.Float64()-0.5)*1.6, 1+(rng.Float64()-0.5)*1.6)
		aim := geom.V3(98, 100+(rng.Float64()-0.5)*1.6, 1+(rng.Float64()-0.5)*1.6)
		tt, idx, ok := check("tie", Ray{Origin: o, Dir: aim.Sub(o).Unit()})
		if !ok || idx != 12 {
			t.Fatalf("tie ray hit target %d (ok=%v), want the lowest tied index 12", idx, ok)
		}
		if t13, _ := IntersectBox(Ray{Origin: o, Dir: aim.Sub(o).Unit()}, targets[13].Box); t13 != tt {
			t.Fatalf("tie ray: target 13 entered at %v, target 12 at %v — not a tie", t13, tt)
		}
	}
}
