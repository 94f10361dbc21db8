// Command swarmgate fronts a fleet of swarmd replicas with a key-routed
// gateway (internal/gate). It exposes the same /v1 surface as a
// single swarmd — same swarm/api request/response contract, same error
// envelope, byte-identical responses — but decomposes each sweep grid and
// experiment into points and routes every point to its home replica, with per-point
// timeouts and bounded retry-on-retryable against a different replica. A
// replica killed mid-sweep is drained and its in-flight points are
// re-routed, so the sweep still completes.
//
// Endpoints (identical contract to swarmd):
//
//	POST /v1/run              one configuration, routed to one replica
//	POST /v1/sweep            a grid, fanned out and reassembled in config order
//	GET  /v1/experiments      list the paper's experiments
//	POST /v1/experiments/{id} one table/figure, its points routed like a sweep's
//	GET  /healthz             gateway liveness + per-replica health map
//	GET  /metrics             Prometheus text: swarmgate_* routing counters
//
// Usage:
//
//	swarmgate -replicas http://10.0.0.1:8080,http://10.0.0.2:8080
//	swarmgate -replicas ... -point-timeout 2m -retries 5
//	swarmgate -replicas ... -breaker-threshold 3 -hedge=false   # failure-hardening knobs
//
// Each point is routed by rendezvous hashing of its configuration key over
// the replicas that are healthy and whose circuit breaker admits traffic,
// so a point keeps one home replica whose LRU holds it, and only a drained
// or tripped replica's points move. Replicas should share a -store
// directory so any replica can serve any previously computed point.
//
// SIGINT/SIGTERM starts a graceful shutdown: the listener closes,
// in-flight requests drain for -drain, then remaining routing is canceled.
package main

import (
	"flag"
	"log/slog"
	"os"
	"time"

	"swarmhints/internal/cliutil"
	"swarmhints/internal/gate"
	"swarmhints/internal/obs"
)

// fatal logs a startup/serve failure and exits.
func fatal(msg string, err error) {
	slog.Error(msg, "component", "swarmgate", "err", err)
	os.Exit(1)
}

func main() {
	var (
		addr        = flag.String("addr", ":8090", "listen address (host:port; port 0 = ephemeral)")
		replicas    = flag.String("replicas", "", "comma-separated swarmd base URLs (required), e.g. http://10.0.0.1:8080,http://10.0.0.2:8080")
		pointTO     = flag.Duration("point-timeout", 5*time.Minute, "per-attempt timeout for one point (0 = none)")
		retries     = flag.Int("retries", 3, "extra attempts for a retryable point failure, each on a different replica")
		concurrency = flag.Int("concurrency", 0, "max points in flight per request (0 = 4 x replicas)")
		probe       = flag.Duration("probe", time.Second, "background /healthz probe interval (negative = disabled; the interval is jittered +/-25%)")
		probeTO     = flag.Duration("probe-timeout", 0, "per-probe timeout (0 = 2s)")
		seed        = flag.Int64("seed", 1, "routing seed: perturbs the point-key hash, so another seed gives each point another home replica (routing is reproducible for a fixed seed)")
		drain       = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
		hedge       = flag.Bool("hedge", true, "hedge straggling points with a second attempt on another replica after the fleet's ~p95 latency")
		brkThresh   = flag.Int("breaker-threshold", 0, "consecutive failures that open a replica's circuit breaker (0 = 5, negative = disabled)")
		brkCooldown = flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (0 = 2s)")
		retryWait   = flag.Duration("retry-backoff", 0, "base retry backoff, grown exponentially with full jitter (0 = 5ms, negative = disabled)")
		faultSpec   = flag.String("fault", "", "fault-injection site spec, e.g. 'gate.attempt=fail,prob:0.01' (testing only)")
		faultSeed   = flag.Int64("fault-seed", 1, "fault-injection PRNG seed (fire patterns are reproducible for a fixed seed)")
		faultAdmin  = flag.Bool("fault-admin", false, "mount the /v1/faults runtime fault-injection admin endpoint (testing only)")
		obsOn       = flag.Bool("obs", true, "enable request tracing and latency histograms (disabled, every instrumentation point costs one atomic load)")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat   = flag.String("log-format", "text", "log format: text or json")
		debugAddr   = flag.String("debug-addr", "", "separate listener for /debug/pprof and /debug/traces (empty = disabled); never expose publicly")
	)
	flag.Parse()

	if err := obs.SetupDefaultLogger(*logLevel, *logFormat); err != nil {
		fatal("bad logging flags", err)
	}
	obs.SetEnabled(*obsOn)
	if err := cliutil.ArmFaults(*faultSpec, *faultSeed); err != nil {
		fatal("arming fault sites", err)
	}
	urls, err := cliutil.ParseReplicas(*replicas)
	if err != nil {
		fatal("parsing replicas", err)
	}

	g, err := gate.New(gate.Options{
		Replicas:         urls,
		PointTimeout:     *pointTO,
		Retries:          *retries,
		Concurrency:      *concurrency,
		ProbeInterval:    *probe,
		ProbeTimeout:     *probeTO,
		Seed:             *seed,
		Hedge:            *hedge,
		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCooldown,
		RetryBackoff:     *retryWait,
		FaultAdmin:       *faultAdmin,
	})
	if err != nil {
		fatal("building gateway", err)
	}
	// Requests inherit the gateway lifetime: Close cancels them all.
	if err := cliutil.Serve("swarmgate", *addr, *debugAddr, g.Handler(), g.Context(), g.Close, *drain,
		"replicas", len(urls), "obs", *obsOn); err != nil {
		os.Exit(1)
	}
}
