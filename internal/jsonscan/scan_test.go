package jsonscan_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"swarmhints/internal/bench"
	"swarmhints/internal/exp"
	"swarmhints/internal/jsonscan"
	"swarmhints/internal/metrics"
	"swarmhints/swarm"
)

// canonicalBodies returns the canonical /v1/run body of every point of the
// tiny-scale fig2 grid and of one merged multi-seed (v2) point: the bodies
// the gateway checks and compacts.
func canonicalBodies(tb testing.TB) [][]byte {
	tb.Helper()
	ctx := context.Background()
	r := exp.NewRunner(exp.DefaultOptions(bench.Tiny))
	if err := exp.Fig2(ctx, r, io.Discard); err != nil {
		tb.Fatal(err)
	}
	sets := []*metrics.ResultSet{}
	all := r.Export()
	for _, rec := range all.Records {
		sets = append(sets, &metrics.ResultSet{Schema: all.Schema, Fields: all.Fields, Records: []metrics.Record{rec}})
	}
	p := exp.Point{Name: "des", Kind: swarm.Hints, Cores: 4}
	var per []*swarm.Stats
	for _, seed := range exp.ReplicaSeeds(7, 2) {
		st, err := exp.RunPoint(p, bench.Tiny, seed, false)
		if err != nil {
			tb.Fatal(err)
		}
		per = append(per, st)
	}
	merged, err := swarm.MergeStats(per)
	if err != nil {
		tb.Fatal(err)
	}
	sets = append(sets, exp.ExportSet([]exp.Point{p}, bench.Tiny, 7, func(exp.Point) *swarm.Stats { return merged }))
	var bodies [][]byte
	for _, rs := range sets {
		var buf bytes.Buffer
		if err := rs.WriteJSON(&buf); err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, buf.Bytes())
	}
	if len(bodies) != 17 || !bytes.Contains(bodies[16], []byte(metrics.SchemaVersionV2)) {
		tb.Fatalf("want 16 fig2 bodies and a v2 body, got %d bodies", len(bodies))
	}
	return bodies
}

// checkAgainstEncodingJSON holds the scanner to encoding/json on one input:
// Valid is json.Valid, AppendCompact is json.Marshal of a json.RawMessage
// (and leaves dst alone on failure), and AppendString is json.Marshal of a
// string.
func checkAgainstEncodingJSON(t *testing.T, in []byte) {
	t.Helper()
	in = append([]byte{}, in...) // a nil RawMessage marshals as null
	if got, want := jsonscan.Valid(in), json.Valid(in); got != want {
		t.Fatalf("Valid(%q) = %v, json.Valid says %v", in, got, want)
	}
	const dst = "dst:"
	got, err := jsonscan.AppendCompact([]byte(dst), in)
	want, werr := json.Marshal(json.RawMessage(in))
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("AppendCompact(%q) error %v, json.Marshal error %v", in, err, werr)
	case err != nil && string(got) != dst:
		t.Fatalf("failed AppendCompact(%q) extended dst to %q", in, got)
	case err == nil && !bytes.Equal(got[len(dst):], want):
		t.Fatalf("AppendCompact(%q) = %q, json.Marshal = %q", in, got[len(dst):], want)
	}
	quoted, err := json.Marshal(string(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := jsonscan.AppendString([]byte(dst), string(in)); !bytes.Equal(got[len(dst):], quoted) {
		t.Fatalf("AppendString(%q) = %q, json.Marshal = %q", in, got[len(dst):], quoted)
	}
}

// corpus is the seed corpus: the canonical bodies, cut and padded, plus
// the escaping, UTF-8, depth and number corners encoding/json pins.
func corpus(tb testing.TB) [][]byte {
	var in [][]byte
	for _, body := range canonicalBodies(tb) {
		in = append(in, body,
			body[:len(body)/2],
			body[:len(body)-3],
			append(append([]byte{}, body...), "x"...),
			append(append([]byte{}, body...), body...),
			append([]byte(" \t\r\n"), body...),
		)
	}
	for _, s := range []string{
		`"<a href=\"x\">&amp;</a>"`,
		`{"k<>&":"v<>&"}`,
		"\"line\u2028sep\u2029para\"",
		"[\"\xe2\x80\xa8\",\"\xe2\x80\",\"\xe2\x80\xa9\xe2\"]",
		"\"bad \xff\xfe utf8 \xc3\x28 \xed\xa0\x80\"",
		"\xff",
		"\"\u00e9\U0001F600\"",
		`"\u00e9\ud83d\ude00\/\b\f\n\r\t\\\""`,
		`"\u12"`, `"\x"`, "\"tab\there\"", "\"nul\x00\"",
		`-0`, `1e+9`, `0.5E-3`, `-`, `01`, `1.`, `.5`, `1e`, `+1`, `-0.0e-0`, `123456789012345678901234567890`,
		`true`, `false`, `null`, `nul`, `truex`, `[true,false,null]`,
		`{}`, `[]`, ` { } `, `{"a":}`, `{"a" 1}`, `{"a":1,}`, `[1,]`, `[1 2]`, `{1:2}`, `{"a":1`, `[`, `]`,
		``, ` `, "\n", `""`, `"`, `[[[]]]`, `{"a":[{"b":{}}]}`,
	} {
		in = append(in, []byte(s))
	}
	// Nesting at the depth limit and one past it, and objects and arrays
	// interleaved across several words of the scanner's container stack.
	for _, depth := range []int{10000, 10001} {
		in = append(in, []byte(strings.Repeat("[", depth)+strings.Repeat("]", depth)))
	}
	in = append(in, []byte(strings.Repeat(`{"a":[1,`, 150)+"{}"+strings.Repeat("]}", 150)))
	return in
}

// FuzzScanVsEncodingJSON: on any input the scanner's verdict is
// json.Valid's and its compact output is json.Marshal's of the same bytes
// as a json.RawMessage; AppendString is json.Marshal of the input as a
// string. Plain `go test` runs the seed corpus.
func FuzzScanVsEncodingJSON(f *testing.F) {
	for _, in := range corpus(f) {
		f.Add(in)
	}
	f.Fuzz(checkAgainstEncodingJSON)
}
