// Nbody: Barnes-Hut on the DSM — the paper's one dynamic application.
// Node 0 rebuilds the octree serially each step while the force partition
// drifts between iterations, so the overdrive protocols must refuse it,
// exactly as the paper excludes barnes from Figure 4.
package main

import (
	"fmt"
	"log"

	"godsm"
	"godsm/internal/apps"
)

func main() {
	app := apps.Barnes(apps.BarnesConfig{
		Bodies:    2048,
		Warm:      3,
		Measure:   3,
		Theta:     0.7,
		InterCost: 400 * godsm.Nanosecond,
		Dt:        0.025,
	})

	seq, err := app.RunWith(1, godsm.Seq, apps.RunOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("barnes-hut, %d bodies, 8 simulated nodes (sequential %v)\n\n", 2048, seq.Elapsed)
	fmt.Printf("%-8s %8s %8s %10s %8s\n", "protocol", "speedup", "misses", "updates", "dataKB")
	for _, proto := range []godsm.ProtocolKind{godsm.LmwI, godsm.LmwU, godsm.BarI, godsm.BarU} {
		rep, err := app.RunWith(8, proto, apps.RunOpts{})
		if err != nil {
			log.Fatal(err)
		}
		if rep.Checksum != seq.Checksum {
			log.Fatalf("%v computed different trajectories", proto)
		}
		fmt.Printf("%-8s %8.2f %8d %10d %8d\n", rep.Protocol, rep.Speedup(seq.Elapsed),
			rep.Total.RemoteMisses, rep.Total.UpdatesSent, rep.Total.DataBytes/1024)
	}

	// The registry knows barnes's sharing pattern drifts and refuses the
	// overdrive protocols up front.
	if _, err := app.RunWith(8, godsm.BarS, apps.RunOpts{}); err != nil {
		fmt.Printf("\nbar-s refused: %v\n", err)
	}
	// Forcing the issue shows the protocol-level safety net: the drifting
	// write set diverges from the learned histories and the run aborts.
	if _, err := godsm.RunWith(app.Body, godsm.WithProtocol(godsm.BarS), godsm.WithSegmentBytes(app.SegmentBytes)); err != nil {
		fmt.Printf("forced bar-s aborted: %v\n", err)
	} else {
		log.Fatal("forced bar-s unexpectedly survived a dynamic pattern")
	}
}
