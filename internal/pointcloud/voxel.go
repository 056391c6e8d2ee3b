package pointcloud

import (
	"math"
)

// VoxelKey identifies a voxel cell by integer grid coordinates.
type VoxelKey struct {
	X, Y, Z int32
}

// KeyFor returns the voxel key of a position for the given voxel edge
// length.
func KeyFor(x, y, z, voxelSize float64) VoxelKey {
	return VoxelKey{
		X: int32(math.Floor(x / voxelSize)),
		Y: int32(math.Floor(y / voxelSize)),
		Z: int32(math.Floor(z / voxelSize)),
	}
}

// VoxelDownsample returns a cloud with at most one point per voxel of the
// given edge length: the centroid of the points that fell in the voxel,
// with the mean reflectance. Merged cooperative clouds are downsampled this
// way to bound detector input size regardless of how many vehicles
// contributed.
func (c *Cloud) VoxelDownsample(voxelSize float64) *Cloud {
	return c.VoxelDownsampleInto(&Cloud{}, voxelSize)
}

// VoxelDownsampleInto is VoxelDownsample writing into dst (reset first),
// so a reused destination amortises the output allocation; dst may be c.
// The output is deterministic regardless of destination reuse: voxels
// appear in first-point order and each accumulates its centroid in cloud
// point order — the voxel table only assigns slot numbers and is never
// iterated.
func (c *Cloud) VoxelDownsampleInto(dst *Cloud, voxelSize float64) *Cloud {
	if voxelSize <= 0 || c.Len() == 0 {
		src := c.pts
		dst.pts = append(dst.pts[:0], src...)
		return dst
	}
	slots := newVoxelTable(c.Len())
	slotOf := make([]int32, c.Len())
	for i, p := range c.pts {
		slotOf[i] = slots.insert(KeyFor(p.X, p.Y, p.Z, voxelSize))
	}
	// Sum each voxel straight into its output point, then scale by the
	// count. Downsampling in place sums into a fresh slice, since the
	// output would overwrite points not yet read.
	sums := dst.pts[:0]
	if dst == c {
		sums = nil
	}
	sums = append(sums, make([]Point, slots.len())...)
	counts := make([]int32, slots.len())
	for i, p := range c.pts {
		s := slotOf[i]
		a := &sums[s]
		a.X += p.X
		a.Y += p.Y
		a.Z += p.Z
		a.Reflectance += p.Reflectance
		counts[s]++
	}
	for i := range sums {
		a := &sums[i]
		inv := 1 / float64(counts[i])
		a.X *= inv
		a.Y *= inv
		a.Z *= inv
		a.Reflectance *= inv
	}
	dst.pts = sums
	return dst
}

// VoxelOccupancy returns the number of occupied voxels at the given voxel
// size — a density-independent measure of how much structure the cloud
// covers.
func (c *Cloud) VoxelOccupancy(voxelSize float64) int {
	if voxelSize <= 0 {
		return c.Len()
	}
	seen := newVoxelTable(c.Len())
	for _, p := range c.pts {
		seen.insert(KeyFor(p.X, p.Y, p.Z, voxelSize))
	}
	return seen.len()
}
