// Package core implements the Cooper system: connected autonomous
// vehicles that sense the world with LiDAR, exchange raw point-cloud data
// packaged with GPS/IMU state (§II-D of the paper), align and merge the
// clouds (Eqs. 1–3), and run the SPOD detector on both single-shot and
// cooperative data. It also provides the scenario case runner that the
// evaluation harness uses to regenerate the paper's figures.
package core

import (
	"fmt"

	"cooper/internal/fusion"
	"cooper/internal/geom"
	"cooper/internal/lidar"
	"cooper/internal/pointcloud"
	"cooper/internal/spod"
)

// Vehicle is one connected autonomous vehicle: a LiDAR, a pose estimate
// (GPS + IMU) and an on-board SPOD detector.
type Vehicle struct {
	// ID names the vehicle in exchanges and reports.
	ID string

	state    fusion.VehicleState
	lidarCfg lidar.Config
	scanner  *lidar.Scanner
	detector *spod.Detector

	lastScan lidar.Scan
}

// NewVehicle creates a vehicle with the given LiDAR model and state. The
// seed fixes sensing noise. The detector is configured for the device's
// vertical FOV.
func NewVehicle(id string, cfg lidar.Config, state fusion.VehicleState, seed int64) *Vehicle {
	if state.MountHeight == 0 {
		state.MountHeight = cfg.MountHeight
	}
	dcfg := spod.DefaultConfig()
	dcfg.VerticalFOVTop = cfg.MaxElevation()
	return &Vehicle{
		ID:       id,
		state:    state,
		lidarCfg: cfg,
		scanner:  lidar.NewScanner(cfg, seed),
		detector: spod.New(dcfg),
	}
}

// SetDetector replaces the vehicle's detector (for ablations).
func (v *Vehicle) SetDetector(d *spod.Detector) { v.detector = d }

// SetWorkers bounds the goroutines the vehicle's scanner and detector use
// internally (< 1 selects one per CPU). Sensing and detection results are
// identical at any worker count; the knob only changes wall-clock time.
func (v *Vehicle) SetWorkers(n int) *Vehicle {
	v.scanner.SetWorkers(n)
	cfg := v.detector.Config()
	cfg.Workers = n
	v.detector = spod.New(cfg)
	return v
}

// State returns the vehicle's current GPS/IMU state.
func (v *Vehicle) State() fusion.VehicleState { return v.state }

// SetState updates the vehicle's pose (driving).
func (v *Vehicle) SetState(s fusion.VehicleState) {
	if s.MountHeight == 0 {
		s.MountHeight = v.lidarCfg.MountHeight
	}
	v.state = s
}

// LiDAR returns the vehicle's sensor configuration.
func (v *Vehicle) LiDAR() lidar.Config { return v.lidarCfg }

// Sense performs one LiDAR revolution against the given world geometry
// and stores the scan. The returned cloud is in the vehicle's sensor
// frame.
func (v *Vehicle) Sense(targets []lidar.Target, groundZ float64) *pointcloud.Cloud {
	v.lastScan = v.scanner.ScanFrom(v.state.Pose(), targets, groundZ)
	return v.lastScan.Cloud
}

// Cloud returns the most recent scan (nil before the first Sense).
func (v *Vehicle) Cloud() *pointcloud.Cloud { return v.lastScan.Cloud }

// LastScan returns the most recent scan with per-object hit counts.
func (v *Vehicle) LastScan() lidar.Scan { return v.lastScan }

// Detect runs SPOD on the vehicle's own latest scan — the paper's
// "single shot" perception.
func (v *Vehicle) Detect() ([]spod.Detection, spod.Stats, error) {
	return v.DetectWith(nil)
}

// DetectWith is Detect reusing the caller's detector scratch (nil draws
// from the shared pool). Callers detecting in a loop — the case runner,
// the episode engine — hold one scratch per worker.
func (v *Vehicle) DetectWith(s *spod.DetectorScratch) ([]spod.Detection, spod.Stats, error) {
	if v.lastScan.Cloud == nil {
		return nil, spod.Stats{}, fmt.Errorf("vehicle %s: %w", v.ID, ErrNoScan)
	}
	dets, stats := v.detector.DetectWithStatsScratch(v.lastScan.Cloud, s)
	return dets, stats, nil
}

// DetectOn runs SPOD on an arbitrary sensor-frame cloud (e.g. a
// cooperative merge).
func (v *Vehicle) DetectOn(cloud *pointcloud.Cloud) ([]spod.Detection, spod.Stats) {
	return v.DetectOnWith(nil, cloud)
}

// DetectOnWith is DetectOn reusing the caller's detector scratch (nil
// draws from the shared pool).
func (v *Vehicle) DetectOnWith(s *spod.DetectorScratch, cloud *pointcloud.Cloud) ([]spod.Detection, spod.Stats) {
	return v.detector.DetectWithStatsScratch(cloud, s)
}

// SensorTransform returns the world→sensor transform of this vehicle.
func (v *Vehicle) SensorTransform() geom.Transform {
	return lidar.SensorTransform(v.state.Pose(), v.state.MountHeight)
}
