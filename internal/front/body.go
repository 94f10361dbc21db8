package front

import (
	"bytes"
	"encoding/json"
	"fmt"

	"swarmhints/internal/exp"
	"swarmhints/internal/metrics"
	"swarmhints/swarm/api"
)

// A point's result travels between tiers as its canonical /v1/run body: the
// single-record result set exp.ExportSet plus WriteJSON encode for it. swarmd
// builds it once per result and caches it, the gateway checks a replica's
// body and relays it verbatim, and the sweep encodings cut each point's
// stats object out of its body instead of re-deriving it. Laid out:
//
//	{                                        set head
//	  "schema": "swarmhints.metrics.v1",
//	  "fields": [ ... ],
//	  "records": [
//	    {                                    record head
//	      "labels": { ... },
//	      "stats": {                         stats object
//	        ...
//	      }
//	    }                                    record close
//	  ]                                      set close
//	}

// bodyFrame is the canonical body of one point around its stats object.
type bodyFrame struct {
	schema string
	prefix []byte // set head and record head, through `"stats": `
	suffix []byte // record close and set close, WriteJSON's newline included
	head   int    // length of the set head within prefix
	tail   int    // length of the set close within suffix
	sep    string // between two record elements of a set
	indent string // line prefix of the stats object's depth
}

// frame returns cfg's body frame under the given schema stamp. It is the
// one place the body layout is derived, and it derives it from the set
// encoder itself — a record whose stats are null — so the frame is exactly
// what WriteJSON writes around a snapshot.
func frame(cfg Config, schema string) bodyFrame {
	rs := metrics.ResultSet{Schema: schema, Fields: exp.ExportFields, Records: []metrics.Record{{
		Labels: exp.PointLabels(cfg.Point, cfg.Scale, cfg.Seed),
	}}}
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("front: encoding the body frame: %v", err))
	}
	b = append(b, '\n')
	const open, recordClose, setClose = `"records": [` + "\n    ", "\n    }", "\n  ]\n}\n"
	const end = "null" + recordClose + setClose
	head := bytes.Index(b, []byte(open))
	if !bytes.HasSuffix(b, []byte(end)) || head < 0 {
		panic("front: unexpected result-set layout")
	}
	prefix := b[:len(b)-len(end)]
	line := prefix[bytes.LastIndexByte(prefix, '\n')+1:]
	return bodyFrame{
		schema: schema,
		prefix: prefix,
		suffix: b[len(prefix)+len("null"):],
		head:   head + len(open),
		tail:   len(setClose),
		sep:    "," + open[len(`"records": [`):],
		indent: string(line[:len(line)-len(bytes.TrimLeft(line, " "))]),
	}
}

// stats returns the stats object of body, or false when body is not
// framed by f.
func (f bodyFrame) stats(body []byte) ([]byte, bool) {
	if len(body) < len(f.prefix)+len(f.suffix) || !bytes.HasPrefix(body, f.prefix) || !bytes.HasSuffix(body, f.suffix) {
		return nil, false
	}
	return body[len(f.prefix) : len(body)-len(f.suffix)], true
}

// Body encodes cfg's canonical /v1/run body around its snapshot: byte for
// byte what exp.ExportSet plus WriteJSON write for the point.
func Body(cfg Config, sn *metrics.Snapshot) ([]byte, error) {
	stats, err := json.Marshal(sn)
	if err != nil {
		return nil, err
	}
	schema := metrics.SchemaVersion
	if sn.SeedSummary != nil {
		// A merged multi-seed record, stamped v2 as exp.ExportSet does.
		schema = metrics.SchemaVersionV2
	}
	f := frame(cfg, schema)
	var buf bytes.Buffer
	buf.Grow(len(f.prefix) + 2*len(stats) + len(f.suffix))
	buf.Write(f.prefix)
	if err := json.Indent(&buf, stats, f.indent, "  "); err != nil {
		return nil, err
	}
	buf.Write(f.suffix)
	return buf.Bytes(), nil
}

// split returns the frame body was built in for cfg and its stats object.
// A body is stamped v1 unless it carries a merged record (v2).
func split(cfg Config, body []byte) (bodyFrame, []byte, error) {
	for _, schema := range []string{metrics.SchemaVersion, metrics.SchemaVersionV2} {
		f := frame(cfg, schema)
		if stats, ok := f.stats(body); ok {
			return f, stats, nil
		}
	}
	return bodyFrame{}, nil, fmt.Errorf("result body is not the canonical record of %s", cfg.Key())
}

// CheckRun verifies that body is a well-formed single-seed /v1/run answer
// for cfg: it starts with the exact v1 frame carrying cfg's labels, ends
// with the exact closing bytes, and holds one valid JSON object between
// the two. It scans the stats object without decoding it.
func CheckRun(cfg Config, body []byte) error {
	stats, ok := frame(cfg, metrics.SchemaVersion).stats(body)
	if !ok {
		return fmt.Errorf("run body is not the v1 record of %s", cfg.Key())
	}
	if len(stats) == 0 || stats[0] != '{' || stats[len(stats)-1] != '}' || !json.Valid(stats) {
		return fmt.Errorf("run body for %s does not hold one JSON stats object", cfg.Key())
	}
	return nil
}

// DecodeBody decodes the snapshot a body carries for cfg.
func DecodeBody(cfg Config, body []byte) (*metrics.Snapshot, error) {
	_, stats, err := split(cfg, body)
	if err != nil {
		return nil, err
	}
	var sn metrics.Snapshot
	if err := json.Unmarshal(stats, &sn); err != nil {
		return nil, fmt.Errorf("result body of %s: %w", cfg.Key(), err)
	}
	return &sn, nil
}

// recordLine returns cfg's NDJSON record line: the body's stats object,
// compacted, under the point's labels — what api.EncodeRecord writes for
// the decoded record, since compacting an indented encoding gives the
// compact encoding back.
func recordLine(cfg Config, body []byte) ([]byte, error) {
	_, stats, err := split(cfg, body)
	if err != nil {
		return nil, err
	}
	return api.EncodeRawRecord(exp.PointLabels(cfg.Point, cfg.Scale, cfg.Seed), stats)
}

// joinBodies assembles the buffered JSON result set of a sweep from its
// points' bodies, in point order: the set head, each body's record element
// between the set separators, and the set close — what WriteJSON writes
// for the set of decoded records. The set is stamped v2 when any record
// is. cfgs must not be empty.
func joinBodies(cfgs []Config, bodies [][]byte) ([]byte, error) {
	var set bodyFrame
	elems := make([][]byte, len(bodies))
	size := 0
	for i, body := range bodies {
		f, _, err := split(cfgs[i], body)
		if err != nil {
			return nil, err
		}
		if i == 0 || f.schema != metrics.SchemaVersion {
			set = f
		}
		elems[i] = body[f.head : len(body)-f.tail]
		size += len(set.sep) + len(elems[i])
	}
	buf := make([]byte, 0, set.head+size+set.tail)
	buf = append(buf, set.prefix[:set.head]...)
	for i, e := range elems {
		if i > 0 {
			buf = append(buf, set.sep...)
		}
		buf = append(buf, e...)
	}
	return append(buf, set.suffix[len(set.suffix)-set.tail:]...), nil
}
