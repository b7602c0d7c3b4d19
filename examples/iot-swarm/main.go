// IoT swarm: leader election when nobody knows how many devices exist.
//
// The paper's motivating scenario: a batch of cheap sensors is deployed in
// an ad-hoc mesh; the deployment count is unknown and no device has an
// identifier. By the paper's Theorem 2 no algorithm can elect a leader and
// stop — so the swarm runs Revocable Leader Election (Blind LE with
// Certificates via Diffusion with Thresholds): devices probe doubling
// size estimates with a potential-diffusion detector, choose random IDs
// certified by the estimate in force, and converge on the smallest ID
// with the largest certificate. Leadership may transfer while estimates
// grow — the example prints the stabilized certificate.
//
//	go run ./examples/iot-swarm
package main

import (
	"context"
	"fmt"
	"log"

	"anonlead"
)

func main() {
	// A 3x3 sensor mesh (grid). The devices do NOT receive n=9; only the
	// simulator knows it.
	nw, err := anonlead.NewNetwork("grid", 9, 7)
	if err != nil {
		log.Fatal(err)
	}
	prof, err := nw.Profile()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh: n=%d m=%d diameter=%d i(G)=%.3f\n",
		prof.N, prof.M, prof.Diameter, prof.Isoperimetric)

	// The site survey gives the installers the mesh's isoperimetric
	// bound, selecting the Theorem 3 diffusion schedule; the calibration
	// shortens the (polynomially huge) faithful schedule while preserving
	// the detector behaviour.
	res, err := nw.Run(context.Background(), anonlead.ProtoRevocable,
		anonlead.WithSeed(3),
		anonlead.WithIsoperimetric(prof.Isoperimetric),
		anonlead.WithEpsilon(0.5),
		anonlead.WithCalibration(0.5, 0.05),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stabilized leader: node %v (unique=%t)\n", res.Leaders, res.Unique)
	fmt.Printf("certificate: id=%d chosen at size estimate k=%d (final estimate %d, true n=%d)\n",
		res.Certificate.ID, res.Certificate.Estimate, res.FinalEstimate, prof.N)
	fmt.Printf("cost: %d messages, %d logical rounds, %d CONGEST-charged rounds\n",
		res.Messages, res.Rounds, res.ChargedRounds)
	fmt.Println("note: per Theorem 2 the devices can never halt — the harness observed")
	fmt.Println("stabilization externally once the estimate passed 4n (Theorem 3).")
}
