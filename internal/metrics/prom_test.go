package metrics

import (
	"bytes"
	"testing"
)

func TestWritePromFormat(t *testing.T) {
	var buf bytes.Buffer
	err := WriteProm(&buf, []PromMetric{
		{Name: "up", Help: "Liveness.", Type: "gauge",
			Values: []PromValue{{Value: 1}}},
		{Name: "runs_total", Help: "Runs by bench.", Type: "counter",
			Values: []PromValue{
				{Labels: map[string]string{"bench": "sssp"}, Value: 3},
				{Labels: map[string]string{"bench": "des"}, Value: 12},
			}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `# HELP up Liveness.
# TYPE up gauge
up 1
# HELP runs_total Runs by bench.
# TYPE runs_total counter
runs_total{bench="des"} 12
runs_total{bench="sssp"} 3
`
	if buf.String() != want {
		t.Errorf("exposition output:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestWritePromDeterministicLabels(t *testing.T) {
	m := PromMetric{Name: "x", Type: "gauge", Values: []PromValue{
		{Labels: map[string]string{"b": "2", "a": "1", "c": "3"}, Value: 7},
	}}
	var first string
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := WriteProm(&buf, []PromMetric{m}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.String()
			continue
		}
		if buf.String() != first {
			t.Fatal("label rendering is not deterministic across encodings")
		}
	}
	want := "# TYPE x gauge\nx{a=\"1\",b=\"2\",c=\"3\"} 7\n"
	if first != want {
		t.Errorf("labels not sorted: %q, want %q", first, want)
	}
}

func TestWritePromEscapesLabelValues(t *testing.T) {
	var buf bytes.Buffer
	err := WriteProm(&buf, []PromMetric{{Name: "x", Type: "counter", Values: []PromValue{
		{Labels: map[string]string{"p": "a\\b\"c\nd"}, Value: 1},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	want := "# TYPE x counter\nx{p=\"a\\\\b\\\"c\\nd\"} 1\n"
	if buf.String() != want {
		t.Errorf("escaping wrong: %q, want %q", buf.String(), want)
	}
}

func TestPromFamilies(t *testing.T) {
	type nested struct {
		Runs uint64 `prom:"nested_total,counter" help:"Never reached."`
	}
	c := struct {
		Hits     uint64             `prom:"hits_total,counter" help:"Hits."`
		Skipped  uint64             // untagged: no family
		Depth    int64              `prom:"depth,gauge" help:"Depth."`
		Entries  int                `prom:"entries,gauge" help:"Entries."`
		Ratio    float64            `prom:"ratio,gauge"`
		Down     bool               `prom:"down,gauge" help:"Down."`
		Up       bool               `prom:"up,gauge" help:"Up."`
		ByBench  map[string]uint64  `prom:"runs_total,counter,bench" help:"Runs by bench."`
		Position map[string]float64 `prom:"position,gauge,replica" help:"Position."`
		Healthy  map[string]bool    `prom:"healthy,gauge,replica" help:"Health."`
		Inner    nested
	}{
		Hits: 3, Skipped: 9, Depth: -2, Entries: 5, Ratio: 0.25, Up: true,
		ByBench:  map[string]uint64{"sssp": 3, "des": 12},
		Position: map[string]float64{"b": 0.5, "a": 1},
		Healthy:  map[string]bool{"a": true, "b": false},
	}
	var buf bytes.Buffer
	if err := WriteProm(&buf, PromFamilies(c)); err != nil {
		t.Fatal(err)
	}
	want := `# HELP hits_total Hits.
# TYPE hits_total counter
hits_total 3
# HELP depth Depth.
# TYPE depth gauge
depth -2
# HELP entries Entries.
# TYPE entries gauge
entries 5
# TYPE ratio gauge
ratio 0.25
# HELP down Down.
# TYPE down gauge
down 0
# HELP up Up.
# TYPE up gauge
up 1
# HELP runs_total Runs by bench.
# TYPE runs_total counter
runs_total{bench="des"} 12
runs_total{bench="sssp"} 3
# HELP position Position.
# TYPE position gauge
position{replica="a"} 1
position{replica="b"} 0.5
# HELP healthy Health.
# TYPE healthy gauge
healthy{replica="a"} 1
healthy{replica="b"} 0
`
	if buf.String() != want {
		t.Errorf("exposition output:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestPromFamiliesPanicsOnMisdeclaration(t *testing.T) {
	for name, c := range map[string]any{
		"string kind": struct {
			S string `prom:"s,gauge"`
		}{},
		"uint32 kind": struct {
			U uint32 `prom:"u,counter"`
		}{},
		"string map values": struct {
			M map[string]string `prom:"m,gauge,k"`
		}{},
		"label on a scalar": struct {
			N uint64 `prom:"n,counter,k"`
		}{},
		"missing type": struct {
			N uint64 `prom:"n"`
		}{},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("PromFamilies did not panic")
				}
			}()
			PromFamilies(c)
		})
	}
}
