package gate

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"swarmhints/internal/obs"
)

var updateMetrics = flag.Bool("update", false, "rewrite testdata/metrics-*.prom from the current /metrics output")

// metricsGoldenEnv marks the fresh test process TestMetricsGolden records
// its script in.
const metricsGoldenEnv = "SWARMHINTS_METRICS_GOLDEN"

// TestMetricsGolden pins the /metrics text of a store-backed replica, a
// memory-only replica and the gateway fronting both after a fixed request
// script: runs (one repeated, so the LRU answers it), a seeds:2 run, a
// JSON sweep, an experiment and a bad request. Family order, HELP and
// TYPE lines and every series must match the goldens byte for byte once
// replica URLs are replaced by placeholders.
//
// The store's op-latency histogram is process-global and other tests in
// this package fill it with observability enabled, so the script runs in
// a fresh test process, with observability disabled, where every
// histogram is still empty.
func TestMetricsGolden(t *testing.T) {
	if os.Getenv(metricsGoldenEnv) == "" {
		args := []string{"-test.run=^TestMetricsGolden$", "-test.count=1", "-test.v"}
		if *updateMetrics {
			args = append(args, "-update")
		}
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), metricsGoldenEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil || !bytes.Contains(out, []byte("--- PASS: TestMetricsGolden")) {
			t.Fatalf("metrics golden process: %v\n%s", err, out)
		}
		return
	}
	obs.SetEnabled(false)
	r0, r1 := startReplica(t, t.TempDir()), startReplica(t, "")
	_, gw := startGateway(t, r0.URL, r1.URL)
	for _, step := range []struct {
		path, body string
		status     int
	}{
		{"/v1/run", `{"bench":"des","sched":"random","cores":1,"scale":"tiny"}`, http.StatusOK},
		{"/v1/run", `{"bench":"des","sched":"hints","cores":4,"scale":"tiny"}`, http.StatusOK},
		{"/v1/run", `{"bench":"des","sched":"random","cores":1,"scale":"tiny"}`, http.StatusOK},
		{"/v1/run", `{"bench":"des","sched":"hints","cores":1,"scale":"tiny","seeds":2}`, http.StatusOK},
		{"/v1/sweep", strings.Replace(fig2SweepBody, "%s", "json", 1), http.StatusOK},
		{"/v1/experiments/fig2", `{"scale":"tiny","cores":[1,4]}`, http.StatusOK},
		{"/v1/run", `{"bench":"no-such","sched":"hints","cores":1,"scale":"tiny"}`, http.StatusBadRequest},
	} {
		if resp, b := post(t, gw.URL, step.path, step.body); resp.StatusCode != step.status {
			t.Fatalf("%s %s: status %d, want %d: %s", step.path, step.body, resp.StatusCode, step.status, b)
		}
	}

	urls := strings.NewReplacer(r0.URL, "<replica0>", r1.URL, "<replica1>")
	for _, target := range []struct{ name, url string }{
		{"replica-store", r0.URL},
		{"replica-memory", r1.URL},
		{"gateway", gw.URL},
	} {
		resp, err := http.Get(target.url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		got := sortSeries(urls.Replace(string(b)))
		path := filepath.Join("testdata", "metrics-"+target.name+".prom")
		if *updateMetrics {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (rerun with -update to create): %v", err)
		}
		if got != string(want) {
			t.Errorf("%s /metrics differs from %s:\n%s", target.name, path, got)
		}
	}
}

// sortSeries re-sorts the series lines of each counter and gauge family,
// whose order the URL placeholders can change. Histogram series keep
// their bucket order; none of them is labeled by replica.
func sortSeries(text string) string {
	lines := strings.SplitAfter(text, "\n")
	start, sorting := 0, false
	for i := 0; i <= len(lines); i++ {
		if i < len(lines) && !strings.HasPrefix(lines[i], "#") {
			continue
		}
		if sorting {
			sort.Strings(lines[start:i])
		}
		if i < len(lines) && strings.HasPrefix(lines[i], "# TYPE ") {
			sorting = !strings.HasSuffix(lines[i], " histogram\n")
		}
		start = i + 1
	}
	return strings.Join(lines, "")
}
