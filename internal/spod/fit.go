package spod

import (
	"math"
	"math/bits"
	"sort"

	"cooper/internal/geom"
	"cooper/internal/pointcloud"
)

// Car anchor dimensions (KITTI class means), shared with the scene model.
const (
	anchorLength = 3.9
	anchorWidth  = 1.6
	anchorHeight = 1.56
)

// sortSlice is a tiny generic wrapper over sort.Slice keeping call sites
// terse.
func sortSlice[T any](s []T, less func(a, b T) bool) {
	sort.Slice(s, func(i, j int) bool { return less(s[i], s[j]) })
}

// fitStats carries the evidence the score head consumes.
type fitStats struct {
	// n is the number of cluster points inside the fitted box.
	n int
	// coverage is the fraction of the box footprint's BEV cells occupied.
	coverage float64
	// heightTop is the highest point above ground; heightSpan the z spread.
	heightTop, heightSpan float64
	// extentMajor/extentMinor are the observed extents along the fitted axes.
	extentMajor, extentMinor float64
	// extAlongL/extAlongW are the observed extents along the anchor's
	// length and width axes specifically, for dimension consistency.
	extAlongL, extAlongW float64
	// rangeXY is the box centre's ground distance from the sensor.
	rangeXY float64
	// topEl is the highest elevation angle (radians, sensor frame) among
	// the cluster's points — used to detect vertical-FOV truncation.
	topEl float64
}

// candidate is a fitted box proposal with its evidence.
type candidate struct {
	box   geom.Box
	stats fitStats
}

// clusterPoints is the working set for one proposal region.
type clusterPoints struct {
	xs, ys, zs []float64
}

func gatherCluster[I int | int32](c *pointcloud.Cloud, idxs []I) clusterPoints {
	cp := clusterPoints{
		xs: make([]float64, 0, len(idxs)),
		ys: make([]float64, 0, len(idxs)),
		zs: make([]float64, 0, len(idxs)),
	}
	for _, i := range idxs {
		p := c.At(int(i))
		cp.xs = append(cp.xs, p.X)
		cp.ys = append(cp.ys, p.Y)
		cp.zs = append(cp.zs, p.Z)
	}
	return cp
}

func (cp clusterPoints) len() int { return len(cp.xs) }

// pcaYaw returns the orientation of the cluster's principal BEV axis.
func (cp clusterPoints) pcaYaw() float64 {
	n := float64(cp.len())
	if n < 2 {
		return 0
	}
	var mx, my float64
	for i := range cp.xs {
		mx += cp.xs[i]
		my += cp.ys[i]
	}
	mx /= n
	my /= n
	var sxx, syy, sxy float64
	for i := range cp.xs {
		dx, dy := cp.xs[i]-mx, cp.ys[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	// Orientation of the dominant eigenvector of the 2×2 covariance.
	return 0.5 * math.Atan2(2*sxy, sxx-syy)
}

// closenessSteps is the orientation grid of the closeness search: 60
// steps over [0, π/2), a 1.5° resolution.
const closenessSteps = 60

// closenessYaws tabulates the closeness search's (yaw, cos, sin) triples
// once instead of per cluster.
var closenessYaws = func() (tab [closenessSteps]struct{ yaw, c, s float64 }) {
	for i := range tab {
		yaw := float64(i) * (math.Pi / 2) / closenessSteps
		tab[i].yaw, tab[i].c, tab[i].s = yaw, math.Cos(yaw), math.Sin(yaw)
	}
	return tab
}()

// minAreaYaw searches yaw ∈ [0, π/2) for the rectangle orientation that
// maximises the closeness criterion of Zhang et al. (ICRA 2017) — the
// standard L-shape fit for vehicle LiDAR clusters. For each candidate
// orientation, every point is scored by its distance to the nearest
// rectangle edge; visible car faces pull the rectangle into alignment,
// where raw PCA drifts toward the L's diagonal and minimum-area tilts
// under noise.
//
// The loops compare directly rather than through math.Min/math.Max: the
// coordinates hold no NaNs, and the only place a signed zero could
// differ is a distance the score clamps up to d0 anyway.
func (cp clusterPoints) minAreaYaw() float64 {
	n := cp.len()
	if n < 2 {
		return 0
	}
	// Subsample large clusters: orientation needs shape, not every point.
	stride := 1
	if n > 512 {
		stride = n / 512
	}
	bestYaw, bestScore := 0.0, math.Inf(-1)
	for _, o := range &closenessYaws {
		c1, s1 := o.c, o.s

		// First pass: extents along both axes.
		lo1, hi1 := math.Inf(1), math.Inf(-1)
		lo2, hi2 := math.Inf(1), math.Inf(-1)
		for j := 0; j < n; j += stride {
			u := c1*cp.xs[j] + s1*cp.ys[j]
			v := -s1*cp.xs[j] + c1*cp.ys[j]
			if u < lo1 {
				lo1 = u
			}
			if u > hi1 {
				hi1 = u
			}
			if v < lo2 {
				lo2 = v
			}
			if v > hi2 {
				hi2 = v
			}
		}
		// Second pass: closeness — reward points hugging an edge.
		const d0 = 0.05 // saturation distance, metres
		score := 0.0
		for j := 0; j < n; j += stride {
			u := c1*cp.xs[j] + s1*cp.ys[j]
			v := -s1*cp.xs[j] + c1*cp.ys[j]
			d := u - lo1
			if e := hi1 - u; e < d {
				d = e
			}
			if e := v - lo2; e < d {
				d = e
			}
			if e := hi2 - v; e < d {
				d = e
			}
			if d < d0 {
				d = d0
			}
			score += 1 / d
		}
		if score > bestScore {
			bestScore = score
			bestYaw = o.yaw
		}
	}
	return bestYaw
}

// extents projects the cluster on the axis at the given yaw and returns
// (min, max) along it.
func (cp clusterPoints) extents(yaw float64) (float64, float64) {
	c, s := math.Cos(yaw), math.Sin(yaw)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range cp.xs {
		v := c*cp.xs[i] + s*cp.ys[i]
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

// zStats returns (min, max) height of the cluster.
func (cp clusterPoints) zStats() (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, z := range cp.zs {
		lo = math.Min(lo, z)
		hi = math.Max(hi, z)
	}
	return lo, hi
}

// fitCandidates fits car-anchor boxes to a cluster. It returns up to two
// candidates (anchor length along the cluster's principal axis and
// perpendicular to it) — the RPN's two anchor orientations — each with an
// L-shape occlusion shift: when a face is only partially observed, the
// anchor is pushed away from the sensor so the observed points sit on its
// near boundary, the way a partially visible car actually extends away
// from the viewer.
//
// base is the cluster's closeness-search yaw (cp.minAreaYaw()); groundZ
// anchors heights; sensorXY is the observing sensor's ground position
// (the merge receiver's origin for cooperative clouds).
func fitCandidates(cp clusterPoints, base, groundZ float64, sensorXY geom.Vec2) []candidate {
	if cp.len() < 3 {
		return nil
	}
	zMin, zMax := cp.zStats()
	out := make([]candidate, 0, 2)
	for _, yaw := range []float64{base, base + math.Pi/2} {
		cand, ok := fitAtYaw(cp, yaw, groundZ, zMin, zMax, sensorXY)
		if ok {
			out = append(out, cand)
		}
	}
	return out
}

func fitAtYaw(cp clusterPoints, yaw, groundZ, zMin, zMax float64, sensorXY geom.Vec2) (candidate, bool) {
	loL, hiL := cp.extents(yaw)
	loW, hiW := cp.extents(yaw + math.Pi/2)
	extL := hiL - loL
	extW := hiW - loW

	cL := (loL + hiL) / 2
	cW := (loW + hiW) / 2

	// Sensor position projected on the box axes, for the occlusion shift.
	cYaw, sYaw := math.Cos(yaw), math.Sin(yaw)
	sensL := cYaw*sensorXY.X + sYaw*sensorXY.Y
	cYawW, sYawW := math.Cos(yaw+math.Pi/2), math.Sin(yaw+math.Pi/2)
	sensW := cYawW*sensorXY.X + sYawW*sensorXY.Y

	shift := func(center, extent, dim, sensor float64) float64 {
		if extent >= dim {
			return center
		}
		d := (dim - extent) / 2
		if center >= sensor {
			return center + d
		}
		return center - d
	}
	cL = shift(cL, extL, anchorLength, sensL)
	cW = shift(cW, extW, anchorWidth, sensW)

	// Back to world BEV coordinates.
	cx := cYaw*cL + cYawW*cW
	cy := sYaw*cL + sYawW*cW

	box := geom.NewBox(
		geom.V3(cx, cy, groundZ+anchorHeight/2),
		anchorLength, anchorWidth, anchorHeight, geom.WrapAngle(yaw),
	)

	// Evidence: points inside the (slightly inflated) box and footprint
	// coverage. A point inside the grown box has box-local |lx| ≤
	// anchorLength/2+0.15 and |ly| ≤ anchorWidth/2+0.15, so its coverage
	// cell index lands in [-1, 10]×[-1, 4] — a fixed 12×6 window that
	// fits in a 72-bit set, replacing the per-candidate map allocation.
	grown := geom.NewBox(box.Center, box.Length+0.3, box.Width+0.3, box.Height+0.5, box.Yaw)
	n := 0
	var cellBits [2]uint64
	const cell = 0.4
	for i := range cp.xs {
		p := geom.V3(cp.xs[i], cp.ys[i], cp.zs[i])
		if !grown.Contains(p) {
			continue
		}
		n++
		// Cell in box-local coordinates so coverage is orientation-free.
		lx := cYaw*(cp.xs[i]-cx) + sYaw*(cp.ys[i]-cy)
		ly := -sYaw*(cp.xs[i]-cx) + cYaw*(cp.ys[i]-cy)
		ix := int(math.Floor((lx+anchorLength/2)/cell)) + 1
		iy := int(math.Floor((ly+anchorWidth/2)/cell)) + 1
		bit := ix*6 + iy
		cellBits[bit>>6] |= 1 << (bit & 63)
	}
	if n == 0 {
		return candidate{}, false
	}
	coveredCells := bits.OnesCount64(cellBits[0]) + bits.OnesCount64(cellBits[1])
	footprintCells := math.Ceil(anchorLength/cell) * math.Ceil(anchorWidth/cell)

	topEl := math.Inf(-1)
	for i := range cp.xs {
		r := math.Hypot(cp.xs[i], cp.ys[i])
		if r < 0.5 {
			continue
		}
		if el := math.Atan2(cp.zs[i], r); el > topEl {
			topEl = el
		}
	}

	st := fitStats{
		n:           n,
		coverage:    float64(coveredCells) / footprintCells,
		heightTop:   zMax - groundZ,
		heightSpan:  zMax - zMin,
		extentMajor: math.Max(extL, extW),
		extentMinor: math.Min(extL, extW),
		extAlongL:   extL,
		extAlongW:   extW,
		rangeXY:     math.Hypot(cx-sensorXY.X, cy-sensorXY.Y),
		topEl:       topEl,
	}
	return candidate{box: box, stats: st}, true
}

// splitCluster tiles an oversized cluster along its principal axis into
// car-length bins and returns the per-bin point subsets. Queued or
// bumper-to-bumper vehicles form one connected proposal; tiling lets the
// anchors separate them. base is the closeness-search yaw of cp; when
// split is false the cluster came back whole and base is exactly what
// fitting it would search for again.
func splitCluster(cp clusterPoints) (parts []clusterPoints, base float64, split bool) {
	base = cp.minAreaYaw()
	yaw := base
	if loA, hiA := cp.extents(yaw); true {
		// Split along whichever fitted axis is longer.
		if loB, hiB := cp.extents(yaw + math.Pi/2); (hiB - loB) > (hiA - loA) {
			yaw += math.Pi / 2
		}
	}
	lo, hi := cp.extents(yaw)
	extent := hi - lo
	if extent <= anchorLength*1.3 {
		return []clusterPoints{cp}, base, false
	}
	bins := int(math.Ceil(extent / (anchorLength * 1.15)))
	if bins < 2 {
		return []clusterPoints{cp}, base, false
	}
	binW := extent / float64(bins)
	out := make([]clusterPoints, bins)
	c, s := math.Cos(yaw), math.Sin(yaw)
	for i := range cp.xs {
		v := c*cp.xs[i] + s*cp.ys[i]
		b := int((v - lo) / binW)
		if b >= bins {
			b = bins - 1
		}
		out[b].xs = append(out[b].xs, cp.xs[i])
		out[b].ys = append(out[b].ys, cp.ys[i])
		out[b].zs = append(out[b].zs, cp.zs[i])
	}
	kept := out[:0]
	for _, b := range out {
		if b.len() >= 3 {
			kept = append(kept, b)
		}
	}
	return kept, base, true
}

// centroidDistBEV returns the ground-plane distance between two clusters'
// centroids.
func centroidDistBEV(a, b clusterPoints) float64 {
	if a.len() == 0 || b.len() == 0 {
		return math.Inf(1)
	}
	var ax, ay, bx, by float64
	for i := range a.xs {
		ax += a.xs[i]
		ay += a.ys[i]
	}
	for i := range b.xs {
		bx += b.xs[i]
		by += b.ys[i]
	}
	ax /= float64(a.len())
	ay /= float64(a.len())
	bx /= float64(b.len())
	by /= float64(b.len())
	return math.Hypot(ax-bx, ay-by)
}

// concatClusters returns the union of two clusters' points.
func concatClusters(a, b clusterPoints) clusterPoints {
	out := clusterPoints{
		xs: make([]float64, 0, a.len()+b.len()),
		ys: make([]float64, 0, a.len()+b.len()),
		zs: make([]float64, 0, a.len()+b.len()),
	}
	out.xs = append(append(out.xs, a.xs...), b.xs...)
	out.ys = append(append(out.ys, a.ys...), b.ys...)
	out.zs = append(append(out.zs, a.zs...), b.zs...)
	return out
}

// plausibleCar applies the geometric class gate: reject clusters whose
// observed extents or heights cannot belong to a passenger car.
// fovTopEl is the sensor's highest beam elevation: a cluster whose top
// sits at the vertical-FOV ceiling is height-truncated (the sensor cannot
// see over it), and since every supported device's ceiling lies above a
// car roof at all ranges, a truncated cluster cannot be a car.
func plausibleCar(st fitStats, fovTopEl float64) bool {
	const truncationMargin = 0.021 // ≈1.2°, about three HDL-64E beam gaps
	switch {
	case st.topEl >= fovTopEl-truncationMargin: // truncated tall object
		return false
	case st.heightTop > 2.3: // trucks, buildings, trees
		return false
	case st.heightTop < 0.55: // barriers, debris
		return false
	case st.extentMajor > 5.2: // walls, long structures (post-tiling)
		return false
	case st.extentMinor > 2.3: // too wide for a car
		return false
	case st.extentMajor < 2.0 && st.heightTop > 1.62: // pedestrians, cyclists
		return false
	case st.extentMajor > 3.0 && st.extentMinor < 0.22: // thin wall segments
		return false
	}
	return true
}
