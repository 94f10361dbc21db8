package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSwarmsimGoldens runs the command over a matrix of single runs and
// sweeps at tiny scale and byte-compares stdout and the -out file against
// testdata/<golden>.stdout and testdata/<golden>.out.<format>, so every
// report and every record of both output modes is pinned byte for byte.
func TestSwarmsimGoldens(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")
	singleStore := filepath.Join(t.TempDir(), "store")
	cases := []struct {
		name, golden, format string
		args                 string
	}{
		{"single-profile", "single-profile", "json", "-bench sssp -sched hints -cores 16 -profile"},
		{"single-novalidate", "single-novalidate", "json", "-bench des -sched lbhints -cores 4 -validate=false"},
		{"single-custom", "single-custom", "json", "-bench sssp -sched random -cores 4 -taskq 16"},
		// -profile applies only when the output is one record: per-replica
		// rows of three seeds are not profiled, one merged row is.
		{"profile-seeds3", "profile-seeds3", "json", "-bench sssp -sched hints -cores 16 -profile -seeds 3"},
		{"profile-seeds3-merged", "profile-seeds3-merged", "json", "-bench sssp -sched hints -cores 16 -profile -seeds 3 -merge"},
		{"sweep", "sweep", "csv", "-bench bfs,sssp -sched random,hints -cores 1,4"},
		{"seeds3", "seeds3", "json", "-bench des -sched lbhints -cores 4 -seeds 3"},
		{"seeds4-shards2", "seeds4-shards2", "csv", "-bench des,silo -sched hints -cores 4,16 -seeds 4 -merge"},
		{"custom-queues", "custom-queues", "csv", "-bench silo -sched hints -cores 16 -taskq 16,32 -commitq 4"},
		{"custom-queues-merged", "custom-queues-merged", "json", "-bench silo -sched hints -cores 16 -taskq 16,32 -commitq 4 -seeds 3 -merge"},
		// The same sweep cold, then warm, on one store: identical bytes.
		{"store-cold", "sweep", "csv", "-bench bfs,sssp -sched random,hints -cores 1,4 -store " + storeDir},
		{"store-warm", "sweep", "csv", "-bench bfs,sssp -sched random,hints -cores 1,4 -store " + storeDir},
		{"store-single-cold", "store-single", "json", "-bench sssp -sched hints -cores 16 -store " + singleStore},
		{"store-single-warm", "store-single", "json", "-bench sssp -sched hints -cores 16 -store " + singleStore},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out."+tc.format)
			args := append(strings.Fields(tc.args), "-scale", "tiny", "-parallel", "2", "-format", tc.format, "-out", out)
			var stdout, stderr bytes.Buffer
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
			}
			compareGolden(t, tc.golden+".stdout", stdout.Bytes())
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, tc.golden+".out."+tc.format, got)
		})
	}
	if entries, err := os.ReadDir(storeDir); err != nil || len(entries) == 0 {
		t.Errorf("store %s holds nothing after a stored sweep (err %v)", storeDir, err)
	}
}

// TestSwarmsimJSONToStdout pins -format json without -out: the result set
// replaces the human report on stdout.
func TestSwarmsimJSONToStdout(t *testing.T) {
	args := strings.Fields("-bench des -sched hints,lbhints -cores 4 -seeds 2 -scale tiny -parallel 2 -format json")
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	compareGolden(t, "json-stdout.stdout", stdout.Bytes())
}

func TestSwarmsimRejectsBadArgs(t *testing.T) {
	for _, args := range []string{
		"-bench nope -cores 4",
		"-seeds 1 -merge",
		"-sched fastest",
		"-cores 4,x",
		"-cores 5",
		"-cores 0",
		"-out x.json",
	} {
		var stdout, stderr bytes.Buffer
		if err := run(append(strings.Fields(args), "-scale", "tiny"), &stdout, &stderr); err == nil {
			t.Errorf("%q: want an error", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote %q to stdout", args, stdout.String())
		}
	}
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}
