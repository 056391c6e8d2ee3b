package fusion

import (
	"math"
	"math/rand"
	"testing"

	"cooper/internal/geom"
	"cooper/internal/pointcloud"
	"cooper/internal/spod"
)

// inLoopFuse runs the raw backend over one sender payload with and
// without the in-loop ICP correction stage and returns both fused
// clouds, failing on any fuse error.
func inLoopFuse(t *testing.T, receiver, sender *pointcloud.Cloud, recvState, sendState VehicleState) (plain, corrected *pointcloud.Cloud) {
	t.Helper()
	p, err := RawBackend{}.Encode(SensorFrame{State: sendState, Cloud: sender}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payloads := []Payload{{State: sendState, Data: p.Data}}
	run := func(b RawBackend) *pointcloud.Cloud {
		in, err := b.Fuse(SensorFrame{State: recvState, Cloud: receiver}, payloads)
		if err != nil {
			t.Fatalf("fuse (icp=%v): %v", b.UseICP, err)
		}
		return in.Cloud
	}
	return run(RawBackend{}), run(RawBackend{UseICP: true})
}

// assertFinite fails on any non-finite coordinate — the degenerate
// guards must never let a collapsed fit poison the fused cloud.
func assertFinite(t *testing.T, c *pointcloud.Cloud) {
	t.Helper()
	for i := 0; i < c.Len(); i++ {
		p := c.At(i)
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsNaN(p.Z) ||
			math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) || math.IsInf(p.Z, 0) {
			t.Fatalf("fused cloud point %d is non-finite: %+v", i, p)
		}
	}
}

// assertIdenticalClouds fails unless both fused clouds carry exactly the
// same points: the correction stage fell back to the uncorrected fusion.
func assertIdenticalClouds(t *testing.T, plain, corrected *pointcloud.Cloud) {
	t.Helper()
	if plain.Len() != corrected.Len() {
		t.Fatalf("corrected fusion changed the point count: %d vs %d", corrected.Len(), plain.Len())
	}
	for i := 0; i < plain.Len(); i++ {
		if plain.At(i) != corrected.At(i) {
			t.Fatalf("corrected fusion moved point %d: %+v vs %+v", i, corrected.At(i), plain.At(i))
		}
	}
}

// TestInLoopICPDegenerateGuards drives the in-loop correction stage
// through the geometries that break a rigid fit — coincident structure,
// a single collinear wall, and clouds with almost no overlap — under a
// drifted sender state. Every case must fall back to the uncorrected
// fusion, bit for bit, with no NaNs anywhere.
func TestInLoopICPDegenerateGuards(t *testing.T) {
	ground := func(rng *rand.Rand, c *pointcloud.Cloud, n int) {
		for i := 0; i < n; i++ {
			c.AppendXYZR(rng.Float64()*30-15, rng.Float64()*30-15, -1.73+rng.NormFloat64()*0.005, 0.2)
		}
	}
	drifted := VehicleState{GPS: geom.V3(10.4, 0.3, 0), Yaw: 0.01, MountHeight: 1.7}
	recv := VehicleState{MountHeight: 1.7}

	cases := []struct {
		name             string
		receiver, sender func() *pointcloud.Cloud
	}{
		{
			// All elevated structure piled around one spot: the pair
			// scatter collapses and the coincident gate must fire.
			name: "coincident",
			receiver: func() *pointcloud.Cloud {
				rng := rand.New(rand.NewSource(31))
				c := pointcloud.New(900)
				ground(rng, c, 600)
				for i := 0; i < 300; i++ {
					c.AppendXYZR(5+rng.NormFloat64()*1e-6, 1+rng.NormFloat64()*1e-6, rng.Float64(), 0.4)
				}
				return c
			},
			sender: func() *pointcloud.Cloud {
				rng := rand.New(rand.NewSource(32))
				c := pointcloud.New(900)
				ground(rng, c, 600)
				for i := 0; i < 300; i++ {
					c.AppendXYZR(-5+rng.NormFloat64()*1e-6, 1+rng.NormFloat64()*1e-6, rng.Float64(), 0.4)
				}
				return c
			},
		},
		{
			// One thin wall: every pair is collinear, the eigen-ratio
			// gate must refuse the yaw.
			name: "collinear",
			receiver: func() *pointcloud.Cloud {
				rng := rand.New(rand.NewSource(33))
				c := pointcloud.New(1300)
				ground(rng, c, 800)
				for i := 0; i < 500; i++ {
					c.AppendXYZR(8, rng.Float64()*12-6, rng.Float64()*2-1.4, 0.4)
				}
				return c
			},
			sender: func() *pointcloud.Cloud {
				rng := rand.New(rand.NewSource(34))
				c := pointcloud.New(1300)
				ground(rng, c, 800)
				for i := 0; i < 500; i++ {
					c.AppendXYZR(-2, rng.Float64()*12-6, rng.Float64()*2-1.4, 0.4)
				}
				return c
			},
		},
		{
			// Structure far apart in disjoint regions: nearest-neighbour
			// pairs exceed MaxPairDistance, leaving too few to fit.
			name: "low-overlap",
			receiver: func() *pointcloud.Cloud {
				rng := rand.New(rand.NewSource(35))
				c := pointcloud.New(900)
				ground(rng, c, 600)
				for i := 0; i < 300; i++ {
					c.AppendXYZR(12+rng.Float64(), 10+rng.Float64(), rng.Float64()*2, 0.4)
				}
				return c
			},
			sender: func() *pointcloud.Cloud {
				rng := rand.New(rand.NewSource(36))
				c := pointcloud.New(900)
				ground(rng, c, 600)
				for i := 0; i < 300; i++ {
					c.AppendXYZR(-30+rng.Float64(), -25+rng.Float64(), rng.Float64()*2, 0.4)
				}
				return c
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain, corrected := inLoopFuse(t, tc.receiver(), tc.sender(), recv, drifted)
			assertFinite(t, corrected)
			assertIdenticalClouds(t, plain, corrected)
		})
	}
}

// TestInLoopICPEmptySender fuses an empty sender cloud through the
// correction stage: nothing to pair on, identity correction, no panic.
func TestInLoopICPEmptySender(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	recvCloud := pointcloud.New(200)
	for i := 0; i < 200; i++ {
		recvCloud.AppendXYZR(rng.Float64()*20-10, rng.Float64()*20-10, rng.Float64(), 0.3)
	}
	plain, corrected := inLoopFuse(t, recvCloud, &pointcloud.Cloud{},
		VehicleState{MountHeight: 1.7}, VehicleState{GPS: geom.V3(8, 0, 0), MountHeight: 1.7})
	assertFinite(t, corrected)
	assertIdenticalClouds(t, plain, corrected)
}

// TestInLoopICPNaNPoint fuses a raw float32 (CPC1) payload carrying one
// NaN point — the decoder accepts any float32 — through the in-loop
// correction stage and then the cooperative detector. Ground estimation
// must skip the NaN height on both sides instead of panicking.
func TestInLoopICPNaNPoint(t *testing.T) {
	sender := structuredCloud(52)
	sender.AppendXYZR(1, 2, math.NaN(), 0.5)
	sendState := VehicleState{GPS: geom.V3(6, 0.2, 0), Yaw: 0.02, MountHeight: 1.7}
	payloads := []Payload{{State: sendState, Data: pointcloud.EncodeRaw(sender)}}
	receiver := SensorFrame{State: VehicleState{MountHeight: 1.7}, Cloud: structuredCloud(51)}
	in, err := RawBackend{UseICP: true}.Fuse(receiver, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.ICPCorrections) != 1 || math.IsNaN(in.ICPCorrections[0]) {
		t.Fatalf("ICP corrections = %v, want one finite correction", in.ICPCorrections)
	}
	in.Detect(spod.DefaultConfig(), nil)
}
