package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"swarmhints/internal/metrics"
)

// TestErrorEnvelopeRoundTrip pins the envelope wire shape: WriteError's
// bytes decode back to the same code, message, retryability, and status.
func TestErrorEnvelopeRoundTrip(t *testing.T) {
	for _, code := range []Code{
		CodeBadRequest, CodeUnknownBench, CodeUnknownSched, CodeUnknownScale,
		CodeUnknownFormat, CodeUnknownExperiment, CodeBadCores,
		CodeShuttingDown, CodeUnavailable, CodeInternal,
	} {
		e := Errorf(code, "boom %d", 7)
		rr := httptest.NewRecorder()
		WriteError(rr, e)
		if rr.Code != e.HTTPStatus() {
			t.Errorf("%s: wrote status %d, want %d", code, rr.Code, e.HTTPStatus())
		}
		got := DecodeError(rr.Code, bytes.TrimSpace(rr.Body.Bytes()))
		if got.Code != e.Code || got.Message != e.Message || got.Retryable != e.Retryable {
			t.Errorf("%s: round-trip %+v, want %+v", code, got, e)
		}
	}
	// Only instance-bound failures are retryable.
	for code, want := range map[Code]bool{
		CodeShuttingDown: true, CodeUnavailable: true,
		CodeInternal: false, CodeBadRequest: false, CodeUnknownExperiment: false,
	} {
		if got := Errorf(code, "x").Retryable; got != want {
			t.Errorf("%s retryable = %v, want %v", code, got, want)
		}
	}
}

// TestDecodeErrorPlainTextFallback: a body that is not an envelope (an
// intermediary proxy, say) still yields a routable Error.
func TestDecodeErrorPlainTextFallback(t *testing.T) {
	cases := []struct {
		status    int
		code      Code
		retryable bool
	}{
		{400, CodeBadRequest, false},
		{404, CodeUnknownExperiment, false},
		{503, CodeShuttingDown, true},
		{500, CodeInternal, false},
	}
	for _, tc := range cases {
		e := DecodeError(tc.status, []byte("gateway timeout\n"))
		if e.Code != tc.code || e.Retryable != tc.retryable {
			t.Errorf("status %d: got (%s, retryable=%v), want (%s, %v)",
				tc.status, e.Code, e.Retryable, tc.code, tc.retryable)
		}
		if !strings.Contains(e.Message, "gateway timeout") {
			t.Errorf("status %d: fallback message lost the body: %q", tc.status, e.Message)
		}
	}
}

func TestUnknownFormatListsSupported(t *testing.T) {
	e := UnknownFormat("xml", SweepFormats)
	if e.Code != CodeUnknownFormat {
		t.Fatalf("code = %s, want %s", e.Code, CodeUnknownFormat)
	}
	if want := `unknown format "xml" (have ndjson, json, csv)`; e.Message != want {
		t.Fatalf("message = %q, want %q", e.Message, want)
	}
}

func TestAsErrorSynthesizesUnavailable(t *testing.T) {
	plain := AsError(errors.New("connection refused"))
	if plain.Code != CodeUnavailable || !plain.Retryable {
		t.Fatalf("transport error mapped to %+v, want retryable unavailable", plain)
	}
	orig := Errorf(CodeBadCores, "nope")
	if got := AsError(fmt.Errorf("wrapped: %w", orig)); got != orig {
		t.Fatalf("AsError lost the wrapped *Error: %+v", got)
	}
}

// testRecord builds a deterministic record for stream tests.
func testRecord(i int) metrics.Record {
	return metrics.Record{
		Labels:   map[string]string{"bench": "des", "cores": fmt.Sprint(i)},
		Snapshot: &metrics.Snapshot{Cycles: uint64(100 + i), Cores: 1, NumTiles: 1},
	}
}

// encodeStream assembles a full framed stream; trailer optional.
func encodeStream(t *testing.T, n int, withTrailer bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	h, err := EncodeHeader(StreamHeader{Schema: metrics.SchemaVersion, Fields: []string{"bench", "cores"}, Points: n})
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(h)
	for i := 0; i < n; i++ {
		line, err := EncodeRecord(testRecord(i))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
	}
	if withTrailer {
		tr, err := EncodeTrailer(n)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(tr)
	}
	return buf.Bytes()
}

func TestStreamDecoderCompleteStream(t *testing.T) {
	dec, err := NewStreamDecoder(bytes.NewReader(encodeStream(t, 3, true)))
	if err != nil {
		t.Fatal(err)
	}
	if h := dec.Header(); h.Points != 3 || h.Schema != metrics.SchemaVersion {
		t.Fatalf("header = %+v", h)
	}
	var n int
	for {
		rec, ok, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if rec.Labels["cores"] != fmt.Sprint(n) {
			t.Fatalf("record %d out of order: %v", n, rec.Labels)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("decoded %d records, want 3", n)
	}
	if tr := dec.Trailer(); tr == nil || !tr.Complete || tr.Points != 3 {
		t.Fatalf("trailer = %+v, want complete/3", tr)
	}
}

func TestStreamDecoderRejectsTruncated(t *testing.T) {
	dec, err := NewStreamDecoder(bytes.NewReader(encodeStream(t, 3, false)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok, err := dec.Next(); err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
	}
	if _, ok, err := dec.Next(); ok || !errors.Is(err, ErrTruncated) {
		t.Fatalf("trailerless end: ok=%v err=%v, want ErrTruncated", ok, err)
	}
	if dec.Trailer() != nil {
		t.Fatal("truncated stream still reports a trailer")
	}
}

func TestStreamDecoderRejectsLyingTrailer(t *testing.T) {
	var buf bytes.Buffer
	h, _ := EncodeHeader(StreamHeader{Schema: metrics.SchemaVersion, Points: 2})
	buf.Write(h)
	line, _ := EncodeRecord(testRecord(0))
	buf.Write(line)
	tr, _ := EncodeTrailer(2) // claims 2 points, streamed 1
	buf.Write(tr)
	dec, err := NewStreamDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := dec.Next(); err != nil || !ok {
		t.Fatalf("record: ok=%v err=%v", ok, err)
	}
	if _, ok, err := dec.Next(); ok || err == nil {
		t.Fatalf("disagreeing trailer accepted: ok=%v err=%v", ok, err)
	}
}

// TestClientSweepRejectsTrailerlessStream is the satellite contract: a
// server that dies mid-sweep (stream cut before the trailer) must surface
// as ErrTruncated from Client.Sweep, never as a silently short result.
func TestClientSweepRejectsTrailerlessStream(t *testing.T) {
	for _, withTrailer := range []bool{true, false} {
		stream := encodeStream(t, 2, withTrailer)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			_, _ = w.Write(stream)
		}))
		c := NewClient(ts.URL, nil)
		var n int
		_, err := c.Sweep(context.Background(), SweepRequest{}, func(metrics.Record) error {
			n++
			return nil
		})
		ts.Close()
		if withTrailer {
			if err != nil || n != 2 {
				t.Fatalf("complete stream: n=%d err=%v", n, err)
			}
		} else if !errors.Is(err, ErrTruncated) {
			t.Fatalf("trailerless stream: err=%v, want ErrTruncated", err)
		}
	}
}

// TestClientSurfacesServerEnvelope: a server-side envelope comes back as
// the same *Error, code and retryability intact.
func TestClientSurfacesServerEnvelope(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, Errorf(CodeUnknownBench, "unknown benchmark %q", "nope"))
	}))
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	_, err := c.Run(context.Background(), Point{Bench: "nope", Sched: "hints", Cores: 1}.Run("tiny", 7))
	ae := AsError(err)
	if ae.Code != CodeUnknownBench || ae.Retryable {
		t.Fatalf("client error = %+v, want non-retryable unknown_bench", ae)
	}
}

// TestPointRunCarriesSeed: the per-point request a proxy builds pins the
// resolved seed explicitly, so replicas cannot re-default it.
func TestPointRunCarriesSeed(t *testing.T) {
	rr := Point{Bench: "des", Sched: "hints", Cores: 4}.Run("tiny", 42)
	b, err := json.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"seed":42`)) {
		t.Fatalf("run request does not pin the seed: %s", b)
	}
}

// TestEncodeRawRecordMatchesEncodeRecord: a record line written from the
// labels and any indentation of the snapshot's encoding is exactly
// EncodeRecord's line, and both are encoding/json's encoding of the record,
// for labels that need escaping, nil labels, and a nil snapshot.
func TestEncodeRawRecordMatchesEncodeRecord(t *testing.T) {
	sn := &metrics.Snapshot{Cycles: 12345, Cores: 4, NumTiles: 4, CommittedTasks: 99}
	for _, rec := range []metrics.Record{
		{Labels: map[string]string{"bench": "des", "sched": "Hints", "cores": "4", "profile": "false", "scale": "tiny", "seed": "-7"}, Snapshot: sn},
		{Labels: map[string]string{"b<>&": "\u2028x\u2029", "a": "", "q\"\\": "\x01\t\xff é"}, Snapshot: sn},
		{Labels: nil, Snapshot: sn},
		{Labels: map[string]string{"bench": "des"}, Snapshot: nil},
		{},
	} {
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		line, err := EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, want) {
			t.Errorf("EncodeRecord %q:\n got %s\nwant %s", rec.Labels, line, want)
		}
		stats, err := json.MarshalIndent(rec.Snapshot, "      ", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got, err := EncodeRawRecord(rec.Labels, stats)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("EncodeRawRecord %q:\n got %s\nwant %s", rec.Labels, got, want)
		}
	}
}
