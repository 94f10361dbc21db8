package metrics

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// This file implements the Prometheus text exposition format (version
// 0.0.4), the subset needed to publish operational counters and gauges —
// the swarmd service's /metrics endpoint is the consumer. Output is
// byte-deterministic: metrics print in the order given and series within a
// metric are sorted by label signature.

// PromValue is one series of a metric: a label set and its current value.
type PromValue struct {
	Labels map[string]string
	Value  float64
}

// PromMetric is one metric family: name, help text, type, and its series.
// Type is "counter", "gauge", or "histogram". Counter/gauge families fill
// Values; histogram families fill Hist instead.
type PromMetric struct {
	Name   string
	Help   string
	Type   string
	Values []PromValue
	Hist   []PromHistSeries
}

// PromHistSeries is one histogram series: its label set, the bucket upper
// bounds in ascending order (the implicit +Inf bucket is Buckets' final
// entry, beyond the last bound), cumulative bucket counts, and the
// _sum/_count pair. Buckets must have len(Bounds)+1 entries and be
// cumulative (each entry >= the previous).
type PromHistSeries struct {
	Labels  map[string]string
	Bounds  []float64
	Buckets []uint64
	Sum     float64
	Count   uint64
}

// PromFamilies renders a counters struct as metric families, one per
// tagged field, in field order. A field tagged `prom:"name,type"` with a
// `help:"..."` text is one unlabeled series; a map[string]V field tagged
// `prom:"name,type,label"` is one series per key, labeled label=key.
// Values are uint64, int64, int, float64 or bool (1 for true). Untagged
// fields are skipped. The tags are declarations fixed at compile time, so
// a malformed tag or an unsupported kind panics.
func PromFamilies(c any) []PromMetric {
	v := reflect.ValueOf(c)
	var fams []PromMetric
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		tag, ok := f.Tag.Lookup("prom")
		if !ok {
			continue
		}
		parts := strings.Split(tag, ",")
		elem := f.Type
		if len(parts) == 3 && elem.Kind() == reflect.Map && elem.Key().Kind() == reflect.String {
			elem = elem.Elem()
		} else if len(parts) != 2 {
			panic(fmt.Sprintf("metrics: field %s: prom tag %q is not name,type or, on a map[string], name,type,label", f.Name, tag))
		}
		if !promKinds[elem.Kind()] {
			panic(fmt.Sprintf("metrics: field %s: unsupported value type %s", f.Name, elem))
		}
		m := PromMetric{Name: parts[0], Help: f.Tag.Get("help"), Type: parts[1]}
		fv := v.Field(i)
		if len(parts) == 2 {
			m.Values = []PromValue{{Value: promValue(fv)}}
		} else {
			// WriteProm sorts the series, so map order is harmless.
			for it := fv.MapRange(); it.Next(); {
				m.Values = append(m.Values, PromValue{
					Labels: map[string]string{parts[2]: it.Key().String()},
					Value:  promValue(it.Value())})
			}
		}
		fams = append(fams, m)
	}
	return fams
}

// promKinds are the value kinds a tagged field may hold.
var promKinds = map[reflect.Kind]bool{
	reflect.Uint64: true, reflect.Int64: true, reflect.Int: true,
	reflect.Float64: true, reflect.Bool: true,
}

// promValue converts one value of a kind in promKinds to its sample.
func promValue(v reflect.Value) float64 {
	switch v.Kind() {
	case reflect.Uint64:
		return float64(v.Uint())
	case reflect.Int64, reflect.Int:
		return float64(v.Int())
	case reflect.Bool:
		if v.Bool() {
			return 1
		}
		return 0
	}
	return v.Float()
}

// labelEscaper escapes label values per the exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelString renders a label set as {k="v",...} with sorted keys, or ""
// for an empty set.
func labelString(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, k, labelEscaper.Replace(labels[k]))
	}
	b.WriteByte('}')
	return b.String()
}

// bucketLabelString renders a label set plus the le bucket label. The le
// label is appended after the sorted series labels, matching the common
// client-library layout.
func bucketLabelString(labels map[string]string, le string) string {
	base := labelString(labels)
	if base == "" {
		return `{le="` + le + `"}`
	}
	return base[:len(base)-1] + `,le="` + le + `"}`
}

// formatBound renders a bucket upper bound as its le label value.
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// writeHist renders one histogram family: per series, the cumulative
// _bucket lines in bound order (ending with +Inf), then _sum and _count.
// Series are sorted by label signature; bucket order within a series is
// never re-sorted — le values are numeric, not lexical.
func writeHist(w io.Writer, m PromMetric) error {
	type rendered struct {
		sig   string
		lines []string
	}
	series := make([]rendered, 0, len(m.Hist))
	for _, h := range m.Hist {
		r := rendered{sig: labelString(h.Labels)}
		for i, b := range h.Bounds {
			r.lines = append(r.lines, fmt.Sprintf("%s_bucket%s %d",
				m.Name, bucketLabelString(h.Labels, formatBound(b)), h.Buckets[i]))
		}
		r.lines = append(r.lines, fmt.Sprintf("%s_bucket%s %d",
			m.Name, bucketLabelString(h.Labels, "+Inf"), h.Buckets[len(h.Buckets)-1]))
		r.lines = append(r.lines, fmt.Sprintf("%s_sum%s %s",
			m.Name, r.sig, strconv.FormatFloat(h.Sum, 'g', -1, 64)))
		r.lines = append(r.lines, fmt.Sprintf("%s_count%s %d", m.Name, r.sig, h.Count))
		series = append(series, r)
	}
	sort.Slice(series, func(i, j int) bool { return series[i].sig < series[j].sig })
	for _, r := range series {
		for _, line := range r.lines {
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteProm writes the metric families in the Prometheus text exposition
// format. Series within a family are sorted by label signature so the
// output is deterministic regardless of map iteration order.
func WriteProm(w io.Writer, families []PromMetric) error {
	for _, m := range families {
		if m.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, m.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Type); err != nil {
			return err
		}
		if m.Type == "histogram" {
			if err := writeHist(w, m); err != nil {
				return err
			}
			continue
		}
		lines := make([]string, 0, len(m.Values))
		for _, v := range m.Values {
			lines = append(lines, fmt.Sprintf("%s%s %s",
				m.Name, labelString(v.Labels), strconv.FormatFloat(v.Value, 'g', -1, 64)))
		}
		sort.Strings(lines)
		for _, line := range lines {
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}
