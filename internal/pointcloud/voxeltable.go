package pointcloud

import "math/bits"

// voxelTable maps voxel keys to dense slot numbers 0, 1, 2, … handed out
// in first-seen order. It is an open-addressing array with linear
// probing, sized once for an upper bound on the distinct keys (a power of
// two at least twice the bound), so it never grows and probe runs stay
// short. Callers read slot numbers only: the array itself is never
// iterated, so its layout cannot reach an output.
type voxelTable struct {
	entries []voxelEntry
	shift   uint // 64 - log2(len(entries)): hash bits kept for the home index
	n       int32
}

// voxelEntry is one table cell; slot holds the slot number plus one, so
// the zero value marks an empty cell and a fresh table needs no fill.
type voxelEntry struct {
	key  VoxelKey
	slot int32
}

// newVoxelTable returns a table that holds up to maxKeys distinct keys.
func newVoxelTable(maxKeys int) voxelTable {
	if maxKeys < 4 {
		maxKeys = 4
	}
	logCap := bits.Len(uint(2*maxKeys - 1))
	return voxelTable{entries: make([]voxelEntry, 1<<logCap), shift: uint(64 - logCap)}
}

// home returns the key's first probe position: a multiplicative mix of
// the three coordinates, keeping the high bits, into which every input
// bit has carried.
func (t *voxelTable) home(k VoxelKey) int {
	h := uint64(uint32(k.X))*0x9e3779b97f4a7c15 ^
		uint64(uint32(k.Y))*0xc2b2ae3d27d4eb4f ^
		uint64(uint32(k.Z))*0x165667b19e3779f9
	return int(h >> t.shift)
}

// insert returns the key's slot, assigning the next one on first sight.
// The caller must not insert more distinct keys than the table was sized
// for.
func (t *voxelTable) insert(k VoxelKey) int32 {
	mask := len(t.entries) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		e := &t.entries[i]
		if e.slot == 0 {
			t.n++
			e.key, e.slot = k, t.n
			return t.n - 1
		}
		if e.key == k {
			return e.slot - 1
		}
	}
}

// lookup returns the key's slot, or -1 when the key was never inserted.
func (t *voxelTable) lookup(k VoxelKey) int32 {
	mask := len(t.entries) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		e := &t.entries[i]
		if e.slot == 0 {
			return -1
		}
		if e.key == k {
			return e.slot - 1
		}
	}
}

// len returns the number of distinct keys inserted.
func (t *voxelTable) len() int { return int(t.n) }
