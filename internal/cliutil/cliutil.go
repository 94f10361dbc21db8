// Package cliutil holds the flag-parsing and output helpers shared by
// cmd/swarmsim and cmd/experiments, which previously carried divergent
// copies of the same list/scale/scheduler parsers. Both commands also share
// the structured-output convention implemented by Output: -format selects a
// machine-readable encoding, -out redirects it to a file so the
// human-readable report keeps stdout. The two daemons, cmd/swarmd and
// cmd/swarmgate, share one process lifecycle, Serve.
package cliutil

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"swarmhints/internal/bench"
	"swarmhints/internal/fault"
	"swarmhints/internal/metrics"
	"swarmhints/internal/obs"
	"swarmhints/internal/store"
	"swarmhints/swarm"
)

// SplitList splits a comma-separated flag value, dropping empty entries.
func SplitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// ParseInts parses a comma-separated integer list; flagName names the flag
// in errors.
func ParseInts(s, flagName string) ([]int, error) {
	var out []int
	for _, part := range SplitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad %s value %q", flagName, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseSched parses a scheduler name (case-insensitive): the SchedFlag
// name of one scheduler kind.
func ParseSched(s string) (swarm.SchedKind, error) {
	var have []string
	for k := swarm.Random; k <= swarm.HintsNoSerial; k++ {
		if strings.EqualFold(s, SchedFlag(k)) {
			return k, nil
		}
		have = append(have, SchedFlag(k))
	}
	return 0, fmt.Errorf("unknown scheduler %q (have %s)", s, strings.Join(have, ", "))
}

// SchedFlag returns the wire/flag name of a scheduler kind — the inverse
// of ParseSched, so SchedFlag(k) always round-trips. (Kind.String is the
// paper's figure-legend spelling, which for LBIdleProxy and HintsNoSerial
// differs from the parseable name.)
func SchedFlag(k swarm.SchedKind) string {
	switch k {
	case swarm.Random:
		return "random"
	case swarm.Stealing:
		return "stealing"
	case swarm.Hints:
		return "hints"
	case swarm.LBHints:
		return "lbhints"
	case swarm.LBIdleProxy:
		return "lbidle"
	case swarm.HintsNoSerial:
		return "hintsnoser"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseReplicas parses the comma-separated replica URL list of the
// swarmgate -replicas flag: each entry must be an absolute http(s) URL,
// duplicates are rejected (a doubled replica would silently skew every
// balancer), and trailing slashes are normalized away.
func ParseReplicas(s string) ([]string, error) {
	list := SplitList(s)
	if len(list) == 0 {
		return nil, fmt.Errorf("-replicas must list at least one URL")
	}
	seen := make(map[string]bool, len(list))
	out := make([]string, 0, len(list))
	for _, r := range list {
		u, err := url.Parse(r)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("bad replica URL %q (want http://host:port)", r)
		}
		norm := strings.TrimRight(r, "/")
		if seen[norm] {
			return nil, fmt.Errorf("duplicate replica URL %q", norm)
		}
		seen[norm] = true
		out = append(out, norm)
	}
	return out, nil
}

// ParseScheds parses a comma-separated scheduler list.
func ParseScheds(s string) ([]swarm.SchedKind, error) {
	var out []swarm.SchedKind
	for _, part := range SplitList(s) {
		k, err := ParseSched(part)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// ParseBytes parses a human-friendly byte size: a plain integer, optionally
// with a k/m/g/t suffix (binary multiples, case-insensitive), e.g. "512m"
// or "2g". Empty and "0" mean zero; flagName names the flag in errors.
func ParseBytes(s, flagName string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	switch strings.ToLower(s[len(s)-1:]) {
	case "k":
		mult, s = 1<<10, s[:len(s)-1]
	case "m":
		mult, s = 1<<20, s[:len(s)-1]
	case "g":
		mult, s = 1<<30, s[:len(s)-1]
	case "t":
		mult, s = 1<<40, s[:len(s)-1]
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad %s size %q (want e.g. 1048576, 512m, 2g)", flagName, s)
	}
	if v > (1<<62)/mult {
		return 0, fmt.Errorf("bad %s size %q: overflows", flagName, s)
	}
	return v * mult, nil
}

// OpenStore resolves the shared -store/-store-max-bytes flag pair all three
// commands expose: an empty dir disables the persistent result store (nil
// Store), otherwise the directory is opened (created if needed) with the
// parsed size cap.
func OpenStore(dir, maxBytes string) (*store.Store, error) {
	if dir == "" {
		return nil, nil
	}
	limit, err := ParseBytes(maxBytes, "-store-max-bytes")
	if err != nil {
		return nil, err
	}
	return store.Open(dir, limit)
}

// ArmFaults resolves the shared -fault/-fault-seed flag pair swarmd and
// swarmgate expose: seed fault.Default for reproducible draws, then arm
// the semicolon-separated site spec (empty = leave everything disarmed,
// the zero-overhead production state).
func ArmFaults(spec string, seed int64) error {
	fault.SetDefaultSeed(seed)
	if spec == "" {
		return nil
	}
	if err := fault.Default.ArmSpec(spec); err != nil {
		return fmt.Errorf("-fault: %w", err)
	}
	return nil
}

// ParseScale parses an input-scale name (case-insensitive).
func ParseScale(s string) (bench.Scale, error) {
	switch strings.ToLower(s) {
	case "tiny":
		return bench.Tiny, nil
	case "small":
		return bench.Small, nil
	case "full":
		return bench.Full, nil
	}
	return 0, fmt.Errorf("unknown scale %q (have tiny, small, full)", s)
}

// Output is the resolved structured-output destination of a command run.
type Output struct {
	Format metrics.Format
	Path   string // "" = stdout
}

// ParseOutput validates a -format/-out flag pair.
func ParseOutput(format, out string) (Output, error) {
	f, err := metrics.ParseFormat(format)
	if err != nil {
		return Output{}, err
	}
	if f == metrics.FormatHuman && out != "" {
		return Output{}, fmt.Errorf("-out %q needs -format json or csv", out)
	}
	return Output{Format: f, Path: out}, nil
}

// Enabled reports whether structured output was requested at all.
func (o Output) Enabled() bool { return o.Format != metrics.FormatHuman }

// ReplacesHuman reports whether structured output goes to stdout and
// therefore replaces the human-readable report there; with -out FILE both
// are emitted (human to stdout, structured to the file).
func (o Output) ReplacesHuman() bool { return o.Enabled() && o.Path == "" }

// Write encodes rs to the configured destination: the -out file, or stdout
// when there is none. No-op when structured output is disabled.
func (o Output) Write(stdout io.Writer, rs *metrics.ResultSet) error {
	if !o.Enabled() {
		return nil
	}
	if o.Path == "" {
		return rs.Write(stdout, o.Format)
	}
	f, err := os.Create(o.Path)
	if err != nil {
		return err
	}
	if err := rs.Write(f, o.Format); err != nil {
		f.Close()
		return err
	}
	// A close failure can be the first sign of a failed write-back;
	// surface it instead of reporting a truncated file as success.
	return f.Close()
}

// Serve runs a daemon's HTTP lifecycle: an optional debugAddr listener for
// /debug/pprof and /debug/traces, then handler on addr with every request
// under baseCtx, until the listener fails or SIGINT/SIGTERM arrives. A
// signal starts a graceful shutdown: the listener closes, in-flight
// requests drain for up to drain, closeFn cuts off stragglers at the drain
// deadline and runs once more when the drain ends, and "<component>: bye"
// goes to stderr. logAttrs extend the "listening" log line. Every failure
// is logged under component before it is returned.
func Serve(component, addr, debugAddr string, handler http.Handler, baseCtx context.Context, closeFn func(), drain time.Duration, logAttrs ...any) error {
	fail := func(msg string, err error) error {
		slog.Error(msg, "component", component, "err", err)
		return err
	}
	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			return fail("debug listener", err)
		}
		slog.Info("debug listener up (pprof + traces)", "component", component, "addr", dln.Addr().String())
		go func() {
			if err := http.Serve(dln, obs.DebugHandler(obs.Default)); err != nil {
				slog.Error("debug listener failed", "component", component, "err", err)
			}
		}()
	}
	srv := &http.Server{
		Handler:     handler,
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fail("listen", err)
	}
	slog.Info("listening", append([]any{"component", component, "addr", ln.Addr().String()}, logAttrs...)...)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return fail("serve", err)
	case <-ctx.Done():
	}

	slog.Info("shutting down", "component", component, "drain", drain)
	killTimer := time.AfterFunc(drain, closeFn)
	defer killTimer.Stop()
	sdCtx, cancel := context.WithTimeout(context.Background(), drain+5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sdCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		slog.Error("shutdown", "component", component, "err", err)
	}
	closeFn()
	fmt.Fprintf(os.Stderr, "%s: bye\n", component)
	return nil
}
