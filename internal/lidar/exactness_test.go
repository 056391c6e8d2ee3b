package lidar_test

import (
	"math"
	"testing"

	"cooper/internal/lidar"
	"cooper/internal/scene"
)

// TestScanMatchesBruteForceOnGeneratedScenes pins the prepared, culled
// ray caster to the brute-force oracle on real scene geometry: every
// generated family × seeds 1–3 × every pose of a four-vehicle fleet must
// yield bit-identical points, object tags and per-object hit counts.
func TestScanMatchesBruteForceOnGeneratedScenes(t *testing.T) {
	for _, fam := range scene.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			sc, err := scene.Generate(scene.GenParams{Family: fam, Fleet: 4, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			targets := sc.Scene.Targets()
			for i, pose := range sc.Poses {
				noiseSeed := sc.Seed + int64(i)
				got := lidar.NewScanner(sc.LiDAR, noiseSeed).ScanFrom(pose, targets, sc.Scene.GroundZ)
				want := lidar.NewScanner(sc.LiDAR, noiseSeed).ScanFromBrute(pose, targets, sc.Scene.GroundZ)
				compareScans(t, sc.Name+"/"+sc.PoseLabels[i], got, want)
			}
		}
	}
}

func compareScans(t *testing.T, name string, got, want lidar.Scan) {
	t.Helper()
	if got.Cloud.Len() != want.Cloud.Len() || len(got.ObjIDs) != len(want.ObjIDs) {
		t.Fatalf("%s: %d points / %d tags, want %d / %d", name,
			got.Cloud.Len(), len(got.ObjIDs), want.Cloud.Len(), len(want.ObjIDs))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := 0; i < want.Cloud.Len(); i++ {
		g, w := got.Cloud.At(i), want.Cloud.At(i)
		if !same(g.X, w.X) || !same(g.Y, w.Y) || !same(g.Z, w.Z) || !same(g.Reflectance, w.Reflectance) {
			t.Fatalf("%s: point %d = %+v, want %+v", name, i, g, w)
		}
		if got.ObjIDs[i] != want.ObjIDs[i] {
			t.Fatalf("%s: point %d tagged %d, want %d", name, i, got.ObjIDs[i], want.ObjIDs[i])
		}
	}
	if len(got.HitsPerObject) != len(want.HitsPerObject) {
		t.Fatalf("%s: hits for %d objects, want %d", name, len(got.HitsPerObject), len(want.HitsPerObject))
	}
	for id, n := range want.HitsPerObject {
		if got.HitsPerObject[id] != n {
			t.Fatalf("%s: object %d hit %d times, want %d", name, id, got.HitsPerObject[id], n)
		}
	}
}

// BenchmarkScanFrom measures one capture: a single-worker HDL-64
// revolution from the first pose of a generated four-vehicle
// intersection fleet. Run it with -benchmem; CI records it as
// BENCH_lidar.json.
func BenchmarkScanFrom(b *testing.B) {
	sc, err := scene.Generate(scene.GenParams{Family: scene.FamilyIntersection, Fleet: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	targets := sc.Scene.Targets()
	scanner := lidar.NewScanner(sc.LiDAR, sc.Seed).SetWorkers(1)
	points := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points = scanner.ScanFrom(sc.Poses[0], targets, sc.Scene.GroundZ).Cloud.Len()
	}
	b.ReportMetric(float64(points), "points/op")
}
