// Command swarmd serves the simulation harness as a long-running HTTP/JSON
// service (internal/service): single-point runs, batch sweeps streamed as
// NDJSON, and the paper's experiments, sharded across a bounded worker
// fleet with request coalescing and an LRU result cache. Responses are
// byte-identical to what cmd/experiments -format json emits for the same
// configuration — see the "Running swarmd" section of the README.
//
// Endpoints:
//
//	POST /v1/run              one configuration (cache-accelerated)
//	POST /v1/sweep            a grid, streamed as NDJSON in config order
//	GET  /v1/experiments      list the paper's experiments
//	POST /v1/experiments/{id} regenerate one table/figure as a service
//	GET  /healthz             liveness
//	GET  /metrics             Prometheus text: cache, queue, run counters
//
// Usage:
//
//	swarmd -addr :8080 -workers 8 -cache 4096
//	swarmd -addr 127.0.0.1:0        # ephemeral port, printed on startup
//	swarmd -store /var/lib/swarmd -store-max-bytes 2g   # persistent result store
//	swarmd -max-pending 512                             # admission bound (429 "overloaded" past it)
//	swarmd -fault 'store.write=fail,prob:0.01'          # chaos testing (see README)
//
// With -store, lookups go memory-LRU → disk store → coalesced compute with
// write-through on fill, so a restarted swarmd — or a fleet of replicas
// sharing the directory — answers previously computed sweeps with zero
// engine runs (see swarmd_store_* in /metrics).
//
// SIGINT/SIGTERM starts a graceful shutdown: the listener closes, in-flight
// requests drain for -drain, then remaining work is canceled.
package main

import (
	"flag"
	"log/slog"
	"os"
	"time"

	"swarmhints/internal/cliutil"
	"swarmhints/internal/obs"
	"swarmhints/internal/service"
)

// fatal logs a startup/serve failure and exits.
func fatal(msg string, err error) {
	slog.Error(msg, "component", "swarmd", "err", err)
	os.Exit(1)
}

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address (host:port; port 0 = ephemeral)")
		workers       = flag.Int("workers", 0, "max simulations in flight across all requests (0 = GOMAXPROCS)")
		cache         = flag.Int("cache", 4096, "LRU result-cache entries")
		validate      = flag.Bool("validate", true, "check each executed run against the serial reference")
		drain         = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
		storeDir      = flag.String("store", "", "persistent result-store directory, shareable between replicas (empty = memory-only)")
		storeMaxBytes = flag.String("store-max-bytes", "", "result-store size cap, e.g. 512m or 2g (empty/0 = unbounded); oldest-read records are evicted")
		maxPending    = flag.Int("max-pending", 256, "admission bound on in-flight work requests; excess is shed with a retryable 429 (0 = unlimited)")
		faultSpec     = flag.String("fault", "", "fault-injection site spec, e.g. 'store.write=fail,prob:0.01; swarmd.run.slow=latency:200ms,every:10' (testing only)")
		faultSeed     = flag.Int64("fault-seed", 1, "fault-injection PRNG seed (fire patterns are reproducible for a fixed seed)")
		obsOn         = flag.Bool("obs", true, "enable request tracing and latency histograms (disabled, every instrumentation point costs one atomic load)")
		logLevel      = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat     = flag.String("log-format", "text", "log format: text or json")
		debugAddr     = flag.String("debug-addr", "", "separate listener for /debug/pprof and /debug/traces (empty = disabled); never expose publicly")
	)
	flag.Parse()

	if err := obs.SetupDefaultLogger(*logLevel, *logFormat); err != nil {
		fatal("bad logging flags", err)
	}
	obs.SetEnabled(*obsOn)
	if err := cliutil.ArmFaults(*faultSpec, *faultSeed); err != nil {
		fatal("arming fault sites", err)
	}
	st, err := cliutil.OpenStore(*storeDir, *storeMaxBytes)
	if err != nil {
		fatal("opening result store", err)
	}
	if st != nil {
		c := st.Counters()
		slog.Info("result store opened", "component", "swarmd",
			"dir", st.Dir(), "records", c.Records, "bytes", c.Bytes, "capBytes", st.MaxBytes())
	}

	svc := service.New(service.Options{
		Workers: *workers, CacheEntries: *cache, Validate: *validate, Store: st,
		MaxPending: *maxPending,
	})
	// Requests inherit the service lifetime: Close cancels them all.
	if err := cliutil.Serve("swarmd", *addr, *debugAddr, svc.Handler(), svc.Context(), svc.Close, *drain,
		"workers", svc.Workers(), "cacheEntries", *cache, "obs", *obsOn); err != nil {
		os.Exit(1)
	}
}
