package pointcloud

import (
	"math"

	"cooper/internal/geom"
)

// GridIndex is a uniform-grid spatial index over a cloud, supporting
// radius queries. The clustering detector baseline and the ICP refinement
// both use it to avoid quadratic neighbour scans.
//
// Cells are stored compressed: a voxel table numbers the occupied cells,
// and a counting sort over those numbers lays the points out cell by
// cell (CSR), each cell's points in ascending cloud index. The points are
// copied in that cell order, so a cell scan reads contiguous memory.
type GridIndex struct {
	cellSize float64
	cells    voxelTable
	start    []int32     // cell slot s holds entries start[s] to start[s+1]
	ids      []int32     // cloud index of each entry
	pos      []geom.Vec3 // position of each entry
	cloud    *Cloud
}

// NewGridIndex indexes the cloud with the given cell size. Choose the cell
// size close to the typical query radius for best performance.
func NewGridIndex(c *Cloud, cellSize float64) *GridIndex {
	if cellSize <= 0 {
		cellSize = 1
	}
	n := c.Len()
	idx := &GridIndex{cellSize: cellSize, cells: newVoxelTable(n), cloud: c}
	slotOf := make([]int32, n)
	for i, p := range c.pts {
		slotOf[i] = idx.cells.insert(KeyFor(p.X, p.Y, p.Z, cellSize))
	}
	// Counting sort: count per cell, prefix-sum to each cell's end, then
	// place points backwards so every cell keeps ascending cloud order
	// and start[s] ends at the cell's first entry.
	idx.start = make([]int32, idx.cells.len()+1)
	for _, s := range slotOf {
		idx.start[s]++
	}
	for s := 1; s < len(idx.start); s++ {
		idx.start[s] += idx.start[s-1]
	}
	idx.ids = make([]int32, n)
	idx.pos = make([]geom.Vec3, n)
	for i := n - 1; i >= 0; i-- {
		s := slotOf[i]
		idx.start[s]--
		j := idx.start[s]
		idx.ids[j] = int32(i)
		p := c.pts[i]
		idx.pos[j] = geom.Vec3{X: p.X, Y: p.Y, Z: p.Z}
	}
	return idx
}

// cell returns the entry range of the cell at integer coordinates
// (x, y, z); coordinates outside the int32 key range hold no points.
func (g *GridIndex) cell(x, y, z int64) (lo, hi int32) {
	if x != int64(int32(x)) || y != int64(int32(y)) || z != int64(int32(z)) {
		return 0, 0
	}
	s := g.cells.lookup(VoxelKey{int32(x), int32(y), int32(z)})
	if s < 0 {
		return 0, 0
	}
	return g.start[s], g.start[s+1]
}

// Radius returns the indices of all points within r of q.
func (g *GridIndex) Radius(q geom.Vec3, r float64) []int {
	if r <= 0 {
		return nil
	}
	var out []int
	r2 := r * r
	// int64 counters: a key at the int32 limit must not wrap the loops.
	lo := KeyFor(q.X-r, q.Y-r, q.Z-r, g.cellSize)
	hi := KeyFor(q.X+r, q.Y+r, q.Z+r, g.cellSize)
	for x := int64(lo.X); x <= int64(hi.X); x++ {
		for y := int64(lo.Y); y <= int64(hi.Y); y++ {
			for z := int64(lo.Z); z <= int64(hi.Z); z++ {
				from, to := g.cell(x, y, z)
				for j := from; j < to; j++ {
					p := g.pos[j]
					dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
					if dx*dx+dy*dy+dz*dz <= r2 {
						out = append(out, int(g.ids[j]))
					}
				}
			}
		}
	}
	return out
}

// Nearest returns the index of the point closest to q and its distance.
// It returns (-1, +Inf) for an empty index. The search widens ring by ring
// until a hit is found, then verifies one extra ring to guarantee
// correctness near cell boundaries.
func (g *GridIndex) Nearest(q geom.Vec3) (int, float64) {
	// A sparse index can still force thousands of empty ring scans before
	// the first hit; callers that only care about bounded matches should
	// use NearestWithin instead.
	const maxRings = 1 << 12
	return g.nearest(q, maxRings)
}

// NearestWithin is Nearest restricted to a search radius: it returns the
// closest indexed point no farther than roughly r (cell granularity can
// admit a slightly farther best — callers enforcing a strict cutoff must
// still check the returned distance), or (-1, +Inf) when no point lies
// within the scanned rings. Unlike Nearest, the scan never expands past
// the cells that can hold a point within r, so queries far from any
// point cost O(r³/cell³) instead of crawling the whole grid.
func (g *GridIndex) NearestWithin(q geom.Vec3, r float64) (int, float64) {
	if r <= 0 {
		return -1, math.Inf(1)
	}
	maxRings := int32(math.Ceil(r/g.cellSize)) + 1
	return g.nearest(q, maxRings)
}

// nearest expands ring by ring up to maxRings (exclusive), stopping one
// ring after the first hit: a closer point can hide in the next shell
// because cells are cubes.
func (g *GridIndex) nearest(q geom.Vec3, maxRings int32) (int, float64) {
	if g.cloud.Len() == 0 {
		return -1, math.Inf(1)
	}
	center := KeyFor(q.X, q.Y, q.Z, g.cellSize)
	cx, cy, cz := int64(center.X), int64(center.Y), int64(center.Z)
	best := int32(-1)
	bestD2 := math.Inf(1)

	// Ring cells are visited x, then y, then z ascending, and a cell's
	// points in cloud order, so the strict < keeps the first of equally
	// close points. Counters are int64 so a centre at the int32 key limit
	// cannot wrap the loops.
	scanCell := func(x, y, z int64) {
		from, to := g.cell(x, y, z)
		for j := from; j < to; j++ {
			p := g.pos[j]
			dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
			d2 := dx*dx + dy*dy + dz*dz
			if d2 < bestD2 {
				bestD2 = d2
				best = g.ids[j]
			}
		}
	}
	scanRing := func(ring int64) {
		for x := cx - ring; x <= cx+ring; x++ {
			for y := cy - ring; y <= cy+ring; y++ {
				if x == cx-ring || x == cx+ring || y == cy-ring || y == cy+ring {
					for z := cz - ring; z <= cz+ring; z++ {
						scanCell(x, y, z)
					}
					continue
				}
				// Off the x and y faces only the two z faces are on the shell.
				scanCell(x, y, cz-ring)
				scanCell(x, y, cz+ring)
			}
		}
	}

	foundAt := int32(-1)
	for ring := int32(0); ring < maxRings; ring++ {
		scanRing(int64(ring))
		if best >= 0 {
			foundAt = ring
			break
		}
	}
	if foundAt >= 0 && foundAt+1 < maxRings {
		scanRing(int64(foundAt) + 1)
	}
	return int(best), math.Sqrt(bestD2)
}

// Cloud returns the indexed cloud.
func (g *GridIndex) Cloud() *Cloud { return g.cloud }
