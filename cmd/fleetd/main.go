// Command fleetd is the long-running fleet traffic daemon (DESIGN.md
// §15): an N-chip simulated fleet kept on the wire indefinitely, with
// paced load, bounded-admission shedding, chip wedge→heal re-admission,
// and a live invariant auditor that crashes the process (exit 3) with
// a diagnostic snapshot if the fleet's accounting ever breaks.
//
//	fleetd [-addr :7434] [-workload sum] [-chips 4] [-rate N]
//	       [-ingest N] [-packets N] [-duration D] [-fault plan]
//
// SIGTERM/SIGINT or POST /shutdown begins a graceful drain: the
// generator stops, everything admitted runs to completion, and the
// final ledger is printed as key=value pairs, one per line. Exit status: 0 clean drain, 1 reconcile/ledger
// failure, 2 flag error, 3 auditor violation.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/fleetd"
	"repro/internal/mip"
)

func main() {
	addr := flag.String("addr", ":7434", "listen address (use 127.0.0.1:0 for an ephemeral port)")
	workload := flag.String("workload", "sum", "packet program: aes, kasumi, nat, or sum")
	chips := flag.Int("chips", 4, "chips in the fleet")
	engines := flag.Int("engines", 2, "engines per chip")
	threads := flag.Int("threads", 2, "threads per engine")
	flows := flag.Int("flows", 64, "distinct flows in the generated stream")
	payload := flag.Int("payload", 8, "payload bytes per packet")
	seed := flag.Int64("seed", 1, "packet generator seed")
	rate := flag.Int64("rate", 0, "offered load in packets/s (0 = unpaced with backpressure)")
	ingest := flag.Int("ingest", 4096, "ingest queue depth (admission bound)")
	packets := flag.Int64("packets", 0, "stop after offering N packets (0 = run until shutdown)")
	duration := flag.Duration("duration", 0, "auto-shutdown after this long (0 = run until signal)")
	faultSpec := flag.String("fault", "", "fault plan, e.g. fleet/chip_wedge@t=1s+every=2s (see internal/fault)")
	healBase := flag.Duration("heal-base", 50*time.Millisecond, "re-admission probe backoff base")
	healMax := flag.Duration("heal-max", 2*time.Second, "re-admission probe backoff cap")
	probation := flag.Duration("probation", time.Second, "re-wedge inside this window climbs the backoff ladder")
	auditEvery := flag.Duration("audit-every", 100*time.Millisecond, "live invariant auditor cadence")
	mipTime := flag.Duration("mip-time", 4*time.Minute, "compile-time ILP budget for the real workloads")
	flag.Parse()

	if *faultSpec != "" {
		plan, err := fault.Parse(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleetd: -fault: %v\n", err)
			os.Exit(2)
		}
		fault.Install(plan)
		fmt.Printf("fleetd: fault plan: %s\n", *faultSpec)
	}

	fmt.Printf("fleetd: compiling %s.nova ...\n", *workload)
	start := time.Now()
	w, err := fleet.Compile(*workload, &mip.Options{Time: *mipTime})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetd: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("fleetd: compiled in %v\n", time.Since(start).Round(time.Millisecond))

	d, err := fleetd.New(fleetd.Config{
		Workload: w,
		Fleet: fleet.Options{Chips: *chips, Engines: *engines, Threads: *threads,
			Heal: &fleet.HealPolicy{Base: *healBase, Max: *healMax, Probation: *probation, Seed: *seed}},
		Flows:      *flows,
		Payload:    *payload,
		Seed:       *seed,
		Rate:       *rate,
		IngestCap:  *ingest,
		MaxPackets: *packets,
		AuditEvery: *auditEvery,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetd: %v\n", err)
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetd: %v\n", err)
		os.Exit(1)
	}
	// The resolved address is printed (not just the flag value) so
	// scripts using :0 can find the port.
	fmt.Printf("fleetd: listening on %s\n", ln.Addr())
	hs := &http.Server{Handler: d.Handler()}
	go hs.Serve(ln)
	defer hs.Close()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if *duration > 0 {
			select {
			case s := <-sig:
				fmt.Fprintf(os.Stderr, "fleetd: %v, draining\n", s)
			case <-time.After(*duration):
				fmt.Fprintf(os.Stderr, "fleetd: -duration %v elapsed, draining\n", *duration)
			}
		} else {
			s := <-sig
			fmt.Fprintf(os.Stderr, "fleetd: %v, draining\n", s)
		}
		d.Shutdown()
	}()

	fmt.Printf("fleetd: fleet up: %d chips x %d engines x %d threads, %d flows, rate %d pps, ingest %d\n",
		*chips, *engines, *threads, *flows, *rate, *ingest)
	rep, err := d.Run()
	if rep != nil {
		printReport(rep)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetd: %v\n", err)
		os.Exit(1)
	}
}

// printReport emits the final ledger as key=value pairs, one per line,
// for humans and for scripts that grep it.
func printReport(rep *fleetd.Report) {
	res := rep.Result
	fmt.Printf("fleetd: final report\n")
	fmt.Printf("uptime=%v\n", rep.Uptime.Round(time.Millisecond))
	fmt.Printf("offered=%d\n", rep.Offered)
	fmt.Printf("admitted=%d\n", rep.Admitted)
	fmt.Printf("shed=%d\n", rep.Shed)
	if res != nil {
		fmt.Printf("generated=%d\n", res.Generated)
		fmt.Printf("delivered=%d\n", res.Delivered)
		fmt.Printf("dropped=%d\n", res.Dropped)
		fmt.Printf("requeued=%d\n", res.Requeued)
		fmt.Printf("wedges=%d\n", res.Wedges)
		fmt.Printf("heals=%d\n", res.Heals)
		fmt.Printf("probes=%d\n", res.Probes)
		fmt.Printf("status=%s\n", res.Status)
	}
	fmt.Printf("placement_restored=%v\n", rep.PlacementRestored)
	fmt.Printf("violations=%d\n", rep.Violations)
	fmt.Printf("goroutines=%d baseline=%d\n", rep.GoroutinesEnd, rep.GoroutineBaseline)
}
