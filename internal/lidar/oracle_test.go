package lidar

import (
	"math"

	"cooper/internal/geom"
)

// referenceIntersectBox is the slab test as it stood before targets were
// prepared once per scan: it rotates both the origin and the direction
// into the box frame for every ray. It is the exactness oracle for
// preparedBox.
func referenceIntersectBox(r Ray, b geom.Box) (float64, bool) {
	c, s := math.Cos(-b.Yaw), math.Sin(-b.Yaw)
	o := r.Origin.Sub(b.Center)
	lo := geom.Vec3{X: c*o.X - s*o.Y, Y: s*o.X + c*o.Y, Z: o.Z}
	ld := geom.Vec3{X: c*r.Dir.X - s*r.Dir.Y, Y: s*r.Dir.X + c*r.Dir.Y, Z: r.Dir.Z}

	half := geom.Vec3{X: b.Length / 2, Y: b.Width / 2, Z: b.Height / 2}
	tmin, tmax := math.Inf(-1), math.Inf(1)

	for _, axis := range [3][3]float64{
		{lo.X, ld.X, half.X},
		{lo.Y, ld.Y, half.Y},
		{lo.Z, ld.Z, half.Z},
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
		return 0, false
	}
	if tmin < 0 {
		return tmax, true
	}
	return tmin, true
}

// bruteNearestHit is the brute-force closest hit: every ray tests every
// target with the reference slab test, no cull, lowest index on ties.
func bruteNearestHit(r Ray, targets []Target, groundZ, maxRange float64) (float64, int, bool) {
	bestT := maxRange
	bestIdx := -2
	if t, ok := IntersectGround(r, groundZ); ok && t < bestT {
		bestT, bestIdx = t, -1
	}
	for i := range targets {
		if t, ok := referenceIntersectBox(r, targets[i].Box); ok && t < bestT {
			bestT, bestIdx = t, i
		}
	}
	if bestIdx == -2 {
		return 0, 0, false
	}
	return bestT, bestIdx, true
}

// ScanFromBrute is ScanFrom with every ray cast by bruteNearestHit. It is
// exported to the external exactness test, which needs the generated
// scenes of package scene (itself an importer of lidar).
func (s *Scanner) ScanFromBrute(pose geom.Transform, targets []Target, groundZ float64) Scan {
	origin := pose.Apply(geom.V3(0, 0, s.cfg.MountHeight))
	return s.scan(pose, origin, targets, func(dir geom.Vec3) (float64, int, bool) {
		return bruteNearestHit(Ray{Origin: origin, Dir: dir}, targets, groundZ, s.cfg.MaxRange)
	})
}
