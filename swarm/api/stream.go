package api

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"swarmhints/internal/jsonscan"
	"swarmhints/internal/metrics"
)

// NDJSON stream framing. A complete /v1/sweep (or buffered ndjson) response
// is exactly:
//
//	header line    {"schema":...,"fields":[...],"points":N}
//	N record lines {"labels":{...},"stats":{...}}     (canonical order)
//	trailer line   {"trailer":{"points":N,"complete":true}}
//
// A 200-then-stream response cannot signal a mid-grid failure with a
// status code; it truncates instead. The trailer makes truncation
// detectable without counting: a stream that ends without one is
// incomplete, whatever the header promised. StreamDecoder enforces this —
// it returns ErrTruncated for trailerless streams.

// ErrTruncated reports an NDJSON stream that ended without a completion
// trailer: the server failed (or was killed) mid-grid.
var ErrTruncated = errors.New("api: stream truncated (no completion trailer)")

// StreamHeader is the first line of an NDJSON response: the result schema
// version, the label-field order every record follows, and how many
// record lines a complete response carries.
type StreamHeader struct {
	Schema string   `json:"schema"`
	Fields []string `json:"fields"`
	Points int      `json:"points"`
}

// StreamTrailer is the payload of the final line of a complete NDJSON
// response.
type StreamTrailer struct {
	Points   int  `json:"points"`
	Complete bool `json:"complete"`
}

// trailerLine is the wire shape of the trailer line. Record lines never
// carry a "trailer" key, so the key's presence distinguishes the two.
type trailerLine struct {
	Trailer *StreamTrailer `json:"trailer"`
}

// EncodeHeader encodes the header line, newline included.
func EncodeHeader(h StreamHeader) ([]byte, error) {
	b, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// EncodeRecord encodes one record line, newline included: json.Marshal of
// the record. The daemons write the same lines from a point's body with
// EncodeRawRecord; this form serves callers that hold a decoded record.
func EncodeRecord(rec metrics.Record) ([]byte, error) {
	stats, err := json.Marshal(rec.Snapshot)
	if err != nil {
		return nil, err
	}
	return EncodeRawRecord(rec.Labels, stats)
}

// EncodeRawRecord encodes one record line from the record's labels and an
// encoding of its stats object, newline included: exactly the line
// EncodeRecord writes for the snapshot the stats bytes encode. The labels
// are written with sorted keys and the stats object is compacted on the
// way, both by jsonscan without reflection, so any indentation of a
// snapshot's encoding yields the same line. stats must hold one JSON value.
func EncodeRawRecord(labels map[string]string, stats []byte) ([]byte, error) {
	var keyBuf [8]string // room for a point's six labels without allocating
	keys := keyBuf[:0]
	size := len(`{"labels":{},"stats":}`+"\n") + len(stats)
	for k, v := range labels {
		keys = append(keys, k)
		size += len(k) + len(v) + len(`"":"",`)
	}
	slices.Sort(keys)
	b := make([]byte, 0, size)
	b = append(b, `{"labels":`...)
	if labels == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '{')
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonscan.AppendString(b, k)
			b = append(b, ':')
			b = jsonscan.AppendString(b, labels[k])
		}
		b = append(b, '}')
	}
	b = append(b, `,"stats":`...)
	b, err := jsonscan.AppendCompact(b, stats)
	if err != nil {
		return nil, err
	}
	return append(b, "}\n"...), nil
}

// EncodeTrailer encodes the completion trailer for a stream of points
// records, newline included.
func EncodeTrailer(points int) ([]byte, error) {
	b, err := json.Marshal(trailerLine{Trailer: &StreamTrailer{Points: points, Complete: true}})
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeTrailer reports whether line is a trailer line, and its payload
// when it is.
func DecodeTrailer(line []byte) (*StreamTrailer, bool) {
	var tl trailerLine
	if err := json.Unmarshal(line, &tl); err != nil || tl.Trailer == nil {
		return nil, false
	}
	return tl.Trailer, true
}

// StreamDecoder reads an NDJSON response: header, then records, then the
// completion trailer. It validates the framing as it goes and refuses
// trailerless streams.
type StreamDecoder struct {
	sc      *bufio.Scanner
	header  StreamHeader
	trailer *StreamTrailer
	seen    int
}

// NewStreamDecoder reads the header line from r.
func NewStreamDecoder(r io.Reader) (*StreamDecoder, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), MaxRecordBytes)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, errors.New("api: empty NDJSON stream")
	}
	var h StreamHeader
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("api: bad NDJSON header: %w", err)
	}
	return &StreamDecoder{sc: sc, header: h}, nil
}

// Header returns the stream header.
func (d *StreamDecoder) Header() StreamHeader { return d.header }

// Next returns the next record. ok is false when the stream is done: the
// trailer was reached (err nil, Trailer non-nil) or the stream is invalid
// — truncated without a trailer (ErrTruncated), or carrying a trailer
// that disagrees with the records actually streamed.
func (d *StreamDecoder) Next() (rec metrics.Record, ok bool, err error) {
	if !d.sc.Scan() {
		if err := d.sc.Err(); err != nil {
			return rec, false, err
		}
		return rec, false, ErrTruncated
	}
	line := d.sc.Bytes()
	if tr, isTrailer := DecodeTrailer(line); isTrailer {
		if !tr.Complete || tr.Points != d.seen {
			return rec, false, fmt.Errorf("api: trailer (points=%d complete=%v) disagrees with %d streamed records",
				tr.Points, tr.Complete, d.seen)
		}
		d.trailer = tr
		return rec, false, nil
	}
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, false, fmt.Errorf("api: bad record line: %w", err)
	}
	d.seen++
	return rec, true, nil
}

// Trailer returns the completion trailer, non-nil only after Next reported
// a clean end of stream.
func (d *StreamDecoder) Trailer() *StreamTrailer { return d.trailer }
