// Package bench implements the paper's nine benchmarks (Table I) as Swarm
// programs over the public swarm API, each paired with a serial host-side
// reference implementation used to validate speculative executions, plus
// the fine-grain (FG) restructurings of Sec. V for bfs, sssp, astar, and
// color.
//
// Inputs are the synthetic substitutes from internal/workload (see
// DESIGN.md for the substitution table).
package bench

import (
	"fmt"
	"sort"

	"swarmhints/internal/mem"
	"swarmhints/swarm"
)

// Scale selects input sizes: Tiny for unit tests, Small for quick
// experiment runs, Full for the recorded EXPERIMENTS.md runs.
type Scale int

// Scales.
const (
	Tiny Scale = iota
	Small
	Full
)

// String names the scale as the -scale flag spells it.
func (s Scale) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	case Full:
		return "full"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// Instance is one freshly built, runnable benchmark instance. Programs run
// once, so builders are called per run.
type Instance struct {
	Name string
	Prog *swarm.Program
	// Validate checks the final simulated memory against the serial
	// reference. Call after Prog.Run.
	Validate func() error
	// Ordered reports whether the benchmark uses ordered speculation.
	Ordered bool
}

// Builder constructs an instance at the given scale and seed.
type Builder func(scale Scale, seed int64) *Instance

// Registry maps benchmark names (Table I rows, plus -fg variants) to
// builders.
var Registry = map[string]Builder{
	"bfs":      BuildBFSCG,
	"bfs-fg":   BuildBFSFG,
	"sssp":     BuildSSSPCG,
	"sssp-fg":  BuildSSSPFG,
	"astar":    BuildAstarCG,
	"astar-fg": BuildAstarFG,
	"color":    BuildColorCG,
	"color-fg": BuildColorFG,
	"des":      BuildDES,
	"nocsim":   BuildNocsim,
	"silo":     BuildSilo,
	"genome":   BuildGenome,
	"kmeans":   BuildKMeans,
	"mis":      BuildMIS,
}

// hintPatterns documents each registered benchmark's Table I hint
// strategy.
var hintPatterns = map[string]string{
	"bfs":      "Cache line of vertex",
	"bfs-fg":   "Cache line of vertex",
	"sssp":     "Cache line of vertex",
	"sssp-fg":  "Cache line of vertex",
	"astar":    "Cache line of vertex",
	"astar-fg": "Cache line of vertex",
	"color":    "Cache line of vertex",
	"color-fg": "Cache line of vertex (4 task types)",
	"des":      "Logic gate ID",
	"nocsim":   "Router ID",
	"silo":     "(Table ID, primary key)",
	"genome":   "Elem addr, map key, NO/SAMEHINT",
	"kmeans":   "Cache line of point, cluster ID",
	"mis":      "Cache line of vertex",
}

// HintPattern returns a registered benchmark's Table I hint strategy.
func HintPattern(name string) string { return hintPatterns[name] }

// Names returns the nine coarse-grain benchmark names in Table I order.
func Names() []string {
	return []string{"bfs", "sssp", "astar", "color", "des", "nocsim", "silo", "genome", "kmeans"}
}

// FGNames returns the benchmarks that have fine-grain variants (Sec. V).
func FGNames() []string { return []string{"bfs", "sssp", "astar", "color"} }

// AllNames returns every registered benchmark, sorted.
func AllNames() []string {
	out := make([]string, 0, len(Registry))
	for n := range Registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Build looks a benchmark up by name and builds it.
func Build(name string, scale Scale, seed int64) (*Instance, error) {
	b, ok := Registry[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown benchmark %q", name)
	}
	return b(scale, seed), nil
}

// unset is the sentinel distance/color meaning "not yet set".
const unset = ^uint64(0)

// lineOf returns the cache-line hint for a word address (Table I: "Cache
// line of vertex").
func lineOf(addr uint64) uint64 { return mem.LineAddr(addr) }

func expectEq(what string, got, want uint64) error {
	if got != want {
		return fmt.Errorf("%s: got %d, want %d", what, got, want)
	}
	return nil
}
