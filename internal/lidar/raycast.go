package lidar

import (
	"math"

	"cooper/internal/geom"
)

// Target is something a LiDAR ray can hit: an upright oriented box with a
// surface reflectivity, tagged with the scene object it belongs to.
type Target struct {
	// Box is the target's oriented bounding volume in world coordinates.
	Box geom.Box
	// Reflectivity in [0, 1] drives the simulated return intensity.
	Reflectivity float64
	// ObjectID links the target back to a scene object; -1 if untracked.
	ObjectID int
}

// Ray is a half-line from Origin along the unit direction Dir.
type Ray struct {
	Origin geom.Vec3
	Dir    geom.Vec3
}

// At returns the point at parameter t along the ray.
func (r Ray) At(t float64) geom.Vec3 { return r.Origin.Add(r.Dir.Scale(t)) }

// IntersectBox returns the smallest positive ray parameter at which the
// ray enters the upright oriented box, and whether it hits at all. Rays
// starting inside the box report the exit as a hit so points are never
// generated behind the sensor housing.
func IntersectBox(r Ray, b geom.Box) (float64, bool) {
	p := prepareBox(r.Origin, b)
	return p.intersect(r.Dir)
}

// preparedBox is a target box readied for every ray of one scan. All rays
// of a scan leave the same origin, so the rotation into the box frame,
// the origin in that frame and the half extents are computed once; a ray
// then only rotates its direction. wx, wy and r2 place the box's BEV
// bounding circle relative to the origin for the broad-phase cull.
type preparedBox struct {
	c, s   float64   // cos(-yaw), sin(-yaw)
	lo     geom.Vec3 // ray origin in the box frame
	half   geom.Vec3 // half extents
	wx, wy float64   // BEV offset from the ray origin to the box centre
	r2     float64   // squared BEV bounding-circle radius, padded by cullPad
}

// cullPad pads the BEV bounding circle. A slab-test hit lies within about
// 1e-13 m of the true box at scene scales, and the cull's own rounding is
// of the same order; a micrometre of slack keeps the cull conservative.
const cullPad = 1e-6

// prepareBox readies b for rays leaving origin.
func prepareBox(origin geom.Vec3, b geom.Box) preparedBox {
	// Move the origin into the box's local frame: translate then rotate
	// by -yaw about z.
	c, s := math.Cos(-b.Yaw), math.Sin(-b.Yaw)
	o := origin.Sub(b.Center)
	r := math.Hypot(b.Length/2, b.Width/2) + cullPad
	return preparedBox{
		c:    c,
		s:    s,
		lo:   geom.Vec3{X: c*o.X - s*o.Y, Y: s*o.X + c*o.Y, Z: o.Z},
		half: geom.Vec3{X: b.Length / 2, Y: b.Width / 2, Z: b.Height / 2},
		wx:   -o.X,
		wy:   -o.Y,
		r2:   r * r,
	}
}

// intersect is the slab test for the ray from the prepared origin along
// d; see IntersectBox.
func (p *preparedBox) intersect(d geom.Vec3) (float64, bool) {
	ld := geom.Vec3{X: p.c*d.X - p.s*d.Y, Y: p.s*d.X + p.c*d.Y, Z: d.Z}
	tmin, tmax := math.Inf(-1), math.Inf(1)

	for _, axis := range [3][3]float64{
		{p.lo.X, ld.X, p.half.X},
		{p.lo.Y, ld.Y, p.half.Y},
		{p.lo.Z, ld.Z, p.half.Z},
	} {
		origin, dir, h := axis[0], axis[1], axis[2]
		if dir == 0 {
			if origin < -h || origin > h {
				return 0, false
			}
			continue
		}
		t1 := (-h - origin) / dir
		t2 := (h - origin) / dir
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		tmin = math.Max(tmin, t1)
		tmax = math.Min(tmax, t2)
		if tmin > tmax {
			return 0, false
		}
	}
	if tmax < 0 {
		return 0, false // box entirely behind the ray
	}
	if tmin < 0 {
		return tmax, true // ray starts inside: report the exit
	}
	return tmin, true
}

// culled reports whether the ray along dir provably cannot hit the box at
// a parameter below bestT, judged in BEV alone: the bounding circle lies
// off the ray's line, wholly behind the origin, or enters beyond bestT.
// (dx, dy) is dir's BEV part and d2 = dx²+dy². Every box the slab test
// would hit below bestT survives the cull, so culling changes no hit.
func (p *preparedBox) culled(dx, dy, d2, bestT float64) bool {
	if d2 == 0 {
		// A vertical ray's BEV trace is the origin itself.
		return p.wx*p.wx+p.wy*p.wy > p.r2
	}
	// The ray's BEV trace t·(dx, dy) is inside the circle for t·d2 in
	// [a-h, a+h]; disc < 0 means the line never reaches it.
	cr := p.wx*dy - p.wy*dx
	disc := p.r2*d2 - cr*cr
	if disc < 0 {
		return true
	}
	a := p.wx*dx + p.wy*dy
	h := math.Sqrt(disc)
	return a+h < 0 || a-h >= bestT*d2
}

// IntersectGround returns the ray parameter at which the ray crosses the
// horizontal plane z = groundZ, and whether it does so in front of the
// origin.
func IntersectGround(r Ray, groundZ float64) (float64, bool) {
	if r.Dir.Z == 0 {
		return 0, false
	}
	t := (groundZ - r.Origin.Z) / r.Dir.Z
	if t <= 0 {
		return 0, false
	}
	return t, true
}

// caster casts the rays of one scan against prepared targets. It is
// passed by value: the scan's nearestHit method value then carries a
// copy rather than moving the caster to the heap.
type caster struct {
	origin   geom.Vec3
	boxes    []preparedBox
	groundZ  float64
	maxRange float64
}

// newCaster prepares the targets for rays leaving origin.
func newCaster(origin geom.Vec3, targets []Target, groundZ, maxRange float64) caster {
	c := caster{origin: origin, boxes: make([]preparedBox, len(targets)), groundZ: groundZ, maxRange: maxRange}
	for i := range targets {
		c.boxes[i] = prepareBox(origin, targets[i].Box)
	}
	return c
}

// nearestHit finds the closest intersection along dir among the targets
// and the ground plane. It returns the hit parameter, the target index
// (-1 for ground) and whether anything was hit within maxRange. Ties go
// to the lowest index.
func (c caster) nearestHit(dir geom.Vec3) (float64, int, bool) {
	bestT := c.maxRange
	bestIdx := -2
	if t, ok := IntersectGround(Ray{Origin: c.origin, Dir: dir}, c.groundZ); ok && t < bestT {
		bestT, bestIdx = t, -1
	}
	d2 := dir.X*dir.X + dir.Y*dir.Y
	for i := range c.boxes {
		b := &c.boxes[i]
		if b.culled(dir.X, dir.Y, d2, bestT) {
			continue
		}
		if t, ok := b.intersect(dir); ok && t < bestT {
			bestT, bestIdx = t, i
		}
	}
	if bestIdx == -2 {
		return 0, 0, false
	}
	return bestT, bestIdx, true
}
