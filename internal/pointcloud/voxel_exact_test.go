package pointcloud_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cooper/internal/core"
	"cooper/internal/fusion"
	"cooper/internal/geom"
	"cooper/internal/pointcloud"
	"cooper/internal/scene"
)

// The voxel table and the cell-ordered grid index must reproduce the
// map-based code they replaced bit for bit: the detector's dedup, the
// ICP correspondences and the clustering baseline all feed goldens. The
// references below are that code, kept as test oracles.

// refVoxelDownsample is the map-slotted downsample: voxels in first-point
// order, each summing its points in cloud order.
func refVoxelDownsample(c *pointcloud.Cloud, voxelSize float64) *pointcloud.Cloud {
	type acc struct {
		x, y, z, r float64
		n          int
	}
	slot := make(map[pointcloud.VoxelKey]int32, c.Len()/2+1)
	var accs []acc
	for i := 0; i < c.Len(); i++ {
		p := c.At(i)
		k := pointcloud.KeyFor(p.X, p.Y, p.Z, voxelSize)
		si, ok := slot[k]
		if !ok {
			si = int32(len(accs))
			accs = append(accs, acc{})
			slot[k] = si
		}
		a := &accs[si]
		a.x += p.X
		a.y += p.Y
		a.z += p.Z
		a.r += p.Reflectance
		a.n++
	}
	out := pointcloud.New(len(accs))
	for _, a := range accs {
		inv := 1 / float64(a.n)
		out.AppendXYZR(a.x*inv, a.y*inv, a.z*inv, a.r*inv)
	}
	return out
}

// refGrid is the map-of-slices grid index.
type refGrid struct {
	cellSize float64
	cells    map[pointcloud.VoxelKey][]int
	cloud    *pointcloud.Cloud
}

func newRefGrid(c *pointcloud.Cloud, cellSize float64) *refGrid {
	g := &refGrid{cellSize: cellSize, cells: make(map[pointcloud.VoxelKey][]int), cloud: c}
	for i := 0; i < c.Len(); i++ {
		p := c.At(i)
		k := pointcloud.KeyFor(p.X, p.Y, p.Z, cellSize)
		g.cells[k] = append(g.cells[k], i)
	}
	return g
}

func (g *refGrid) radius(q geom.Vec3, r float64) []int {
	var out []int
	r2 := r * r
	lo := pointcloud.KeyFor(q.X-r, q.Y-r, q.Z-r, g.cellSize)
	hi := pointcloud.KeyFor(q.X+r, q.Y+r, q.Z+r, g.cellSize)
	for x := lo.X; x <= hi.X; x++ {
		for y := lo.Y; y <= hi.Y; y++ {
			for z := lo.Z; z <= hi.Z; z++ {
				for _, i := range g.cells[pointcloud.VoxelKey{X: x, Y: y, Z: z}] {
					p := g.cloud.At(i)
					dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
					if dx*dx+dy*dy+dz*dz <= r2 {
						out = append(out, i)
					}
				}
			}
		}
	}
	return out
}

func (g *refGrid) nearestWithin(q geom.Vec3, r float64) (int, float64) {
	return g.nearest(q, int32(math.Ceil(r/g.cellSize))+1)
}

func (g *refGrid) nearest(q geom.Vec3, maxRings int32) (int, float64) {
	if g.cloud.Len() == 0 {
		return -1, math.Inf(1)
	}
	center := pointcloud.KeyFor(q.X, q.Y, q.Z, g.cellSize)
	best := -1
	bestD2 := math.Inf(1)
	scanRing := func(ring int32) {
		for x := center.X - ring; x <= center.X+ring; x++ {
			for y := center.Y - ring; y <= center.Y+ring; y++ {
				for z := center.Z - ring; z <= center.Z+ring; z++ {
					onShell := x == center.X-ring || x == center.X+ring ||
						y == center.Y-ring || y == center.Y+ring ||
						z == center.Z-ring || z == center.Z+ring
					if ring > 0 && !onShell {
						continue
					}
					for _, i := range g.cells[pointcloud.VoxelKey{X: x, Y: y, Z: z}] {
						p := g.cloud.At(i)
						dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
						d2 := dx*dx + dy*dy + dz*dz
						if d2 < bestD2 {
							bestD2 = d2
							best = i
						}
					}
				}
			}
		}
	}
	foundAt := int32(-1)
	for ring := int32(0); ring < maxRings; ring++ {
		scanRing(ring)
		if best >= 0 {
			foundAt = ring
			break
		}
	}
	if foundAt >= 0 && foundAt+1 < maxRings {
		scanRing(foundAt + 1)
	}
	return best, math.Sqrt(bestD2)
}

// coopScene is one generated fleet as the receiver sees it: its own scan
// and every sender's scan aligned into its frame by GPS/IMU (Eq. 3).
type coopScene struct {
	name     string
	receiver *pointcloud.Cloud
	aligned  []*pointcloud.Cloud
}

// merged is the Eq. 2 union the detector dedups.
func (s coopScene) merged() *pointcloud.Cloud { return s.receiver.Merge(s.aligned...) }

func senseCoopScene(tb testing.TB, fam scene.Family, seed int64) coopScene {
	tb.Helper()
	sc, err := scene.Generate(scene.GenParams{Family: fam, Fleet: 4, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	targets := sc.Scene.Targets()
	out := coopScene{name: sc.Name}
	var recv fusion.VehicleState
	for i := range sc.Poses {
		v := core.PoseVehicle(sc, i)
		cloud := v.Sense(targets, sc.Scene.GroundZ)
		if i == 0 {
			recv, out.receiver = v.State(), cloud
			continue
		}
		out.aligned = append(out.aligned, fusion.Align(recv, v.State(), cloud))
	}
	return out
}

// edgeClouds are the hand-built corner cases: negative coordinates,
// points exactly on voxel boundaries, signed zeros and duplicates.
func edgeClouds() map[string]*pointcloud.Cloud {
	rng := rand.New(rand.NewSource(7))
	negative := pointcloud.New(4000)
	for i := 0; i < 4000; i++ {
		negative.AppendXYZR(-rng.Float64()*60, rng.Float64()*60-30, -rng.Float64()*3, rng.Float64())
	}
	boundary := pointcloud.New(2000)
	for i := 0; i < 2000; i++ {
		// Multiples of 0.5 and 0.1 sit on the cell faces of both tested
		// sizes (0.1 only up to rounding, which is the point).
		step := []float64{0.5, 0.1}[i%2]
		boundary.AppendXYZR(float64(rng.Intn(41)-20)*step, float64(rng.Intn(41)-20)*step, float64(rng.Intn(9)-4)*step, rng.Float64())
	}
	negZero := math.Copysign(0, -1)
	zeros := pointcloud.FromPoints([]pointcloud.Point{
		{X: 0, Y: 0, Z: 0, Reflectance: 0.1},
		{X: negZero, Y: 0, Z: negZero, Reflectance: 0.2},
		{X: negZero, Y: negZero, Z: negZero, Reflectance: 0.3},
		{X: 0, Y: negZero, Z: 0, Reflectance: 0.4},
		{X: -1e-300, Y: 1e-300, Z: 0, Reflectance: 0.5},
		{X: 0.5, Y: negZero, Z: -0.5, Reflectance: 0.6},
	})
	dups := pointcloud.New(3000)
	for i := 0; i < 1000; i++ {
		x, y, z := rng.Float64()*8-4, rng.Float64()*8-4, rng.Float64()*2-1
		for k := 0; k < 3; k++ {
			dups.AppendXYZR(x, y, z, float64(k)/3)
		}
	}
	return map[string]*pointcloud.Cloud{"negative": negative, "boundary": boundary, "zeros": zeros, "duplicates": dups}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func assertSameCloud(t *testing.T, name string, got, want *pointcloud.Cloud) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d points, reference %d", name, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		g, w := got.At(i), want.At(i)
		if !sameBits(g.X, w.X) || !sameBits(g.Y, w.Y) || !sameBits(g.Z, w.Z) || !sameBits(g.Reflectance, w.Reflectance) {
			t.Fatalf("%s: point %d = %+v, reference %+v", name, i, g, w)
		}
	}
}

// assertSameGrid compares every query form against the reference index:
// bounded and unbounded nearest (index and distance bits) and radius hit
// lists (order included — the clustering baseline folds them in order).
func assertSameGrid(t *testing.T, name string, c *pointcloud.Cloud, cellSize float64, queries []geom.Vec3, r float64) {
	t.Helper()
	got, want := pointcloud.NewGridIndex(c, cellSize), newRefGrid(c, cellSize)
	for qi, q := range queries {
		gi, gd := got.NearestWithin(q, r)
		wi, wd := want.nearestWithin(q, r)
		if gi != wi || !sameBits(gd, wd) {
			t.Fatalf("%s: NearestWithin(q%d=%v, %v) = (%d, %v), reference (%d, %v)", name, qi, q, r, gi, gd, wi, wd)
		}
		if wi >= 0 {
			// Unbounded search from a query with a hit in reach; a far
			// query would crawl thousands of empty rings in the reference.
			gi, gd = got.Nearest(q)
			wi, wd = want.nearest(q, 1<<12)
			if gi != wi || !sameBits(gd, wd) {
				t.Fatalf("%s: Nearest(q%d=%v) = (%d, %v), reference (%d, %v)", name, qi, q, gi, gd, wi, wd)
			}
		}
		gr, wr := got.Radius(q, r), want.radius(q, r)
		if len(gr) != len(wr) {
			t.Fatalf("%s: Radius(q%d=%v, %v) has %d hits, reference %d", name, qi, q, r, len(gr), len(wr))
		}
		for k := range wr {
			if gr[k] != wr[k] {
				t.Fatalf("%s: Radius(q%d=%v, %v) hit %d = %d, reference %d", name, qi, q, r, k, gr[k], wr[k])
			}
		}
	}
}

// strided picks every stride-th point position of the clouds as queries.
func strided(stride int, clouds ...*pointcloud.Cloud) []geom.Vec3 {
	var qs []geom.Vec3
	for _, c := range clouds {
		for i := 0; i < c.Len(); i += stride {
			qs = append(qs, c.At(i).Pos())
		}
	}
	return qs
}

// TestVoxelTableMatchesMapReference pins the voxel table users to the
// map-based oracles on merged cooperative clouds from every generated
// family × seeds 1–3 and on the hand-built corner cases.
func TestVoxelTableMatchesMapReference(t *testing.T) {
	icp := fusion.DefaultICPConfig()
	for _, fam := range scene.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			s := senseCoopScene(t, fam, seed)
			merged := s.merged()
			for _, size := range []float64{0.10, 0.4} {
				name := fmt.Sprintf("%s/voxel%.2f", s.name, size)
				assertSameCloud(t, name, merged.VoxelDownsample(size), refVoxelDownsample(merged, size))
				if got, want := merged.VoxelOccupancy(size), refVoxelDownsample(merged, size).Len(); got != want {
					t.Fatalf("%s: VoxelOccupancy = %d, reference %d", name, got, want)
				}
			}
			// ICP-shaped: sender points, nudged as a mid-iteration
			// correction would, matched into the receiver's elevated
			// structure on a MaxPairDistance grid.
			ref := s.receiver.RemoveGroundPlane(s.receiver.EstimateGroundZ(), 0.3)
			nudge := geom.NewTransform(0.004, 0, 0, geom.V3(0.13, -0.07, 0))
			var queries []geom.Vec3
			for _, q := range strided(7, s.aligned...) {
				queries = append(queries, nudge.Apply(q))
			}
			assertSameGrid(t, s.name+"/icp", ref, icp.MaxPairDistance, queries, icp.MaxPairDistance)
			// Clustering-shaped: the cloud's own points at the baseline's
			// tolerance.
			assertSameGrid(t, s.name+"/cluster", ref, 0.6, strided(11, ref), 0.6)
		}
	}
	for name, c := range edgeClouds() {
		for _, size := range []float64{0.1, 0.5, 1} {
			label := fmt.Sprintf("%s/%v", name, size)
			assertSameCloud(t, label, c.VoxelDownsample(size), refVoxelDownsample(c, size))
			assertSameGrid(t, label, c, size, strided(1, c), size)
		}
	}
}

// TestGridIndexTieBreakMatchesReference places equidistant points in
// every neighbouring cell and duplicates within a cell: the first point in
// x → y → z cell order, then cloud order, must win, as before.
func TestGridIndexTieBreakMatchesReference(t *testing.T) {
	q := geom.V3(0.5, 0.5, 0.5)
	var pts []pointcloud.Point
	for _, d := range []geom.Vec3{{X: 0.5}, {X: -0.5}, {Y: 0.5}, {Y: -0.5}, {Z: 0.5}, {Z: -0.5}} {
		p := q.Add(d)
		pts = append(pts, pointcloud.Point{X: p.X, Y: p.Y, Z: p.Z})
	}
	// Reverse order and duplicates, so neither cloud order nor cell order
	// alone decides.
	for i := len(pts) - 1; i >= 0; i-- {
		pts = append(pts, pts[i])
	}
	c := pointcloud.FromPoints(pts)
	var queries []geom.Vec3
	for _, d := range []float64{0, 0.25, 0.5, 1, -0.5} {
		queries = append(queries, q.Add(geom.V3(d, d, d)), q.Add(geom.V3(d, 0, 0)), q.Add(geom.V3(0, 0, d)))
	}
	for _, cell := range []float64{0.25, 0.5, 1, 2} {
		assertSameGrid(t, fmt.Sprintf("ties/cell%v", cell), c, cell, queries, 0.5)
		assertSameGrid(t, fmt.Sprintf("ties/cell%v/r1", cell), c, cell, queries, 1)
	}
}

// The microbenchmarks below measure the two voxel-table users on the
// shapes the frame path gives them. Run them with -benchmem; CI records
// them, with the root BenchmarkICPRefinement, as BENCH_voxel.json.

// BenchmarkVoxelDownsampleMerged dedups a merged four-vehicle
// intersection cloud at the cooperative detector's 0.10 m voxel.
func BenchmarkVoxelDownsampleMerged(b *testing.B) {
	merged := senseCoopScene(b, scene.FamilyIntersection, 1).merged()
	dst := pointcloud.New(merged.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged.VoxelDownsampleInto(dst, 0.10)
	}
	b.ReportMetric(float64(merged.Len()), "points/op")
}

// BenchmarkGridNearestWithin builds the ICP reference grid (1 m cells
// over the receiver's elevated structure) and runs 1500 bounded
// correspondence queries from an aligned sender, as one ICP iteration
// does.
func BenchmarkGridNearestWithin(b *testing.B) {
	s := senseCoopScene(b, scene.FamilyIntersection, 1)
	icp := fusion.DefaultICPConfig()
	ref := s.receiver.RemoveGroundPlane(s.receiver.EstimateGroundZ(), 0.3)
	src := s.aligned[0]
	queries := strided(max(1, src.Len()/icp.MaxPoints), src)[:icp.MaxPoints]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := pointcloud.NewGridIndex(ref, icp.MaxPairDistance)
		for _, q := range queries {
			idx.NearestWithin(q, icp.MaxPairDistance)
		}
	}
}
