// ROI exchange: demonstrates the paper's networking story (§IV-G) with a
// real TCP transport. Two vehicles share a fleet hub session — the
// paper's 1:1 exchange: the transmitter publishes its frame, the client
// compares the three ROI categories' payloads against DSRC capacity,
// then requests a one-sender round, fuses the full frame and detects.
package main

import (
	"fmt"
	"log"

	"cooper"
	"cooper/internal/core"
	"cooper/internal/hub"
	"cooper/internal/network"
	"cooper/internal/roi"
)

func main() {
	scenario := cooper.TJScenarios()[0]
	world := scenario.Scene

	// Two vehicles from the scenario.
	rx := makeVehicle(scenario, 0)
	tx := makeVehicle(scenario, 2)
	rx.Sense(world.Targets(), world.GroundZ)
	tx.Sense(world.Targets(), world.GroundZ)

	// An in-process hub on an ephemeral local port; the transmitter
	// publishes its full frame to it.
	h := hub.New(hub.Config{})
	listener, err := network.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go h.Serve(listener)
	defer h.Close()
	txSession, _, err := hub.Connect(listener.Addr(), tx.ID, tx.State())
	if err != nil {
		log.Fatal(err)
	}
	defer txSession.Close()
	pkg, err := tx.PreparePackage(nil)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := txSession.Publish(pkg.State, pkg.Payload); err != nil {
		log.Fatal(err)
	}

	// Compare the three ROI categories' payloads (Figs. 11–12).
	channel := network.DefaultDSRC()
	fmt.Println("ROI exchange categories (1 Hz):")
	for _, cat := range []roi.Category{roi.CategoryFullFrame, roi.CategoryFrontFOV, roi.CategoryLeadView} {
		bytes, err := roi.PayloadBytes(tx.Cloud(), cat)
		if err != nil {
			log.Fatal(err)
		}
		sched := network.ExchangeSchedule{RateHz: 1, FrameBytes: bytes, Directions: roi.Transmissions(cat)}
		fmt.Printf("  %-28s %6.2f Mbit/s  fits %v Mbit/s DSRC: %v\n",
			cat, sched.MbitPerSecond(), channel.DataRateMbps, sched.FitsChannel(channel))
	}

	// Fetch the full frame over the wire — an uncapped one-sender round
	// serves the published bytes unchanged — and fuse.
	rxSession, _, err := hub.Connect(listener.Addr(), rx.ID, rx.State())
	if err != nil {
		log.Fatal(err)
	}
	defer rxSession.Close()
	frames, err := rxSession.RequestRound(rx.State(), 1, 0)
	if err != nil {
		log.Fatal(err)
	}
	if len(frames) != 1 {
		log.Fatalf("round carried %d frames, want 1", len(frames))
	}
	reply := frames[0]
	fmt.Printf("\nreceived %d KB over TCP; transmit time on DSRC would be %v\n",
		len(reply.Payload)/1024, channel.TransmitTime(len(reply.Payload)).Round(1e6))

	single, _, err := rx.Detect()
	if err != nil {
		log.Fatal(err)
	}
	coop, _, err := rx.CooperativeDetect(core.ExchangePackage{
		SenderID: reply.Sender, State: reply.State, Payload: reply.Payload,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single shot %d cars -> cooperative %d cars\n", len(single), len(coop))
}

func makeVehicle(sc *cooper.Scenario, pose int) *cooper.Vehicle {
	p := sc.Poses[pose]
	return cooper.NewVehicle(sc.PoseLabels[pose], sc.LiDAR, cooper.VehicleState{
		GPS: p.T, Yaw: p.R.Yaw(), MountHeight: sc.LiDAR.MountHeight,
	}, sc.Seed+int64(pose)*997)
}
