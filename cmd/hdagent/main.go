// Command hdagent runs a HyperDrive node agent (paper §4.2, component
// ⑥): a daemon that executes training jobs on behalf of a remote
// scheduler, streams application statistics, and implements
// suspend/resume via checkpoint images. Learning-curve prediction runs
// in the scheduler's policy, which holds every job's metric history.
//
//	hdagent -listen :7070 -slots 2 -speedup 600
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/chaos"
	"github.com/hyperdrive-ml/hyperdrive/internal/checkpoint"
	"github.com/hyperdrive-ml/hyperdrive/internal/clock"
	"github.com/hyperdrive-ml/hyperdrive/internal/cluster"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hdagent:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hdagent", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", ":7070", "listen address")
		id       = fs.String("id", "", "agent id (defaults to listen address)")
		slots    = fs.Int("slots", 1, "concurrent training slots")
		speedup  = fs.Float64("speedup", 600, "clock compression factor")
		ckpt     = fs.String("checkpoint", "framework", "snapshot model: framework | criu")
		seedFlag = fs.Int64("seed", 1, "checkpoint model seed")
		obsAddr  = fs.String("obs", "", "serve the introspection endpoint (/metrics, /metrics.json) on this address")
		pprof    = fs.Bool("pprof", false, "mount /debug/pprof/ on the introspection endpoint")
		traceOut = fs.String("trace-out", "", "write a Chrome trace of this agent's job activity to this file on shutdown")

		// Fault-injection knobs (testing the scheduler's fault tolerance
		// against a real agent): every accepted connection is wrapped in
		// a deterministic chaos conn.
		chaosDelay  = fs.Duration("chaos-delay", 0, "inject this base latency before every read/write")
		chaosJitter = fs.Float64("chaos-jitter", 0, "spread -chaos-delay by ± this fraction (0..1)")
		chaosSeed   = fs.Int64("chaos-seed", 1, "seed for the chaos schedule (per-conn seeds are derived)")
		chaosDrop   = fs.Int("chaos-drop-after", 0, "kill each connection after N reads (0 = never)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	mode := checkpoint.Framework
	switch *ckpt {
	case "framework":
	case "criu":
		mode = checkpoint.CRIU
	default:
		return fmt.Errorf("unknown checkpoint mode %q", *ckpt)
	}

	var reg *obs.Registry
	if *obsAddr != "" || *traceOut != "" {
		// The trace's span parents come from the registry's tracer, so
		// -trace-out implies an in-process registry even without -obs.
		reg = obs.NewRegistry()
	}
	var sink *obs.TraceWriter
	if *traceOut != "" {
		sink = obs.NewTraceWriter()
	}

	opts := cluster.AgentOptions{
		ID:             *id,
		Slots:          *slots,
		Clock:          clock.NewScaled(time.Now(), *speedup),
		CheckpointMode: mode,
		Seed:           *seedFlag,
		Obs:            reg,
		TraceSink:      sink,
		Logf:           log.Printf,
	}
	agent, err := cluster.NewAgent(opts)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	if *chaosDelay > 0 || *chaosDrop > 0 {
		l = chaos.NewListener(l, chaos.Options{
			Seed:           *chaosSeed,
			Delay:          *chaosDelay,
			Jitter:         *chaosJitter,
			FailReadsAfter: *chaosDrop,
		})
		log.Printf("hdagent: chaos enabled (delay %v ±%g, drop-after %d, seed %d)",
			*chaosDelay, *chaosJitter, *chaosDrop, *chaosSeed)
	}
	log.Printf("hdagent: listening on %s with %d slots (speedup %gx, checkpoint %s)",
		l.Addr(), *slots, *speedup, mode)

	var obsSrv *http.Server
	if *obsAddr != "" {
		ol, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			return fmt.Errorf("obs listen: %w", err)
		}
		obsSrv = &http.Server{Handler: obs.Handler(reg, obs.HandlerOptions{Pprof: *pprof})}
		go obsSrv.Serve(ol)
		log.Printf("hdagent: introspection endpoint on %s (pprof %v)", ol.Addr(), *pprof)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		log.Print("hdagent: shutting down")
		agent.Close()
		l.Close()
		if obsSrv != nil {
			obsSrv.Close()
		}
	}()
	err = agent.Serve(l)
	if *traceOut != "" {
		if werr := sink.WriteFile(*traceOut); werr != nil {
			return fmt.Errorf("trace export: %w", werr)
		}
		log.Printf("hdagent: wrote trace to %s", *traceOut)
	}
	return err
}
