package front

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"swarmhints/internal/exp"
	"swarmhints/internal/jsonscan"
	"swarmhints/internal/metrics"
	"swarmhints/swarm/api"
)

// A point's result travels between tiers as its canonical /v1/run body: the
// single-record result set exp.ExportSet plus WriteJSON encode for it. swarmd
// builds it once per result and caches it, the gateway checks a replica's
// body and relays it verbatim, and the sweep and experiment encodings cut
// each point's stats object out of its body instead of re-deriving it.
// Laid out:
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
//
// Only the six label values and the stats object vary between the bodies of
// one schema. Each schema's layout — set head, record head around the label
// values, record and set close — is derived once from the set encoder, and
// a point's frame is its layout with the labels written in; the stats object
// is checked and compacted by jsonscan, so relaying a body reflects on
// nothing.

// layout is the part of a schema's body frame that no point changes.
type layout struct {
	schema string
	set    []byte   // set head, through the indent of the first record element
	record []string // record head around its label values, in key order
	slots  []int    // ExportFields index of each label value, in key order
	size   int      // bytes of set and record together
	suffix []byte   // record close and set close, WriteJSON's newline included
	tail   int      // length of the set close within suffix
	sep    string   // between two record elements of a set
	indent string   // line prefix of the stats object's depth
}

// layouts are the v1 and v2 layouts, in the order split tries them.
var layouts = [...]*layout{newLayout(metrics.SchemaVersion), newLayout(metrics.SchemaVersionV2)}

// newLayout derives a schema's layout from the set encoder itself — one
// record whose labels are all empty and whose stats are null — so a frame is
// exactly what WriteJSON writes around a snapshot.
func newLayout(schema string) *layout {
	empty := make(map[string]string, len(exp.ExportFields))
	for _, f := range exp.ExportFields {
		empty[f] = ""
	}
	rs := metrics.ResultSet{Schema: schema, Fields: exp.ExportFields, Records: []metrics.Record{{Labels: empty}}}
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		panic(fmt.Sprintf("front: encoding the body layout: %v", err))
	}
	b := buf.Bytes()
	const open, recordClose, setClose = `"records": [` + "\n    ", "\n    }", "\n  ]\n}\n"
	const end = "null" + recordClose + setClose
	head := bytes.Index(b, []byte(open))
	if !bytes.HasSuffix(b, []byte(end)) || head < 0 {
		panic("front: unexpected result-set layout")
	}
	head += len(open)
	prefix := b[:len(b)-len(end)]
	line := prefix[bytes.LastIndexByte(prefix, '\n')+1:]
	l := &layout{
		schema: schema,
		set:    prefix[:head],
		size:   len(prefix) - 2*len(exp.ExportFields),
		suffix: b[len(prefix)+len("null"):],
		tail:   len(setClose),
		sep:    "," + open[len(`"records": [`):],
		indent: string(line[:len(line)-len(bytes.TrimLeft(line, " "))]),
	}
	// Cut the record head at each label's empty value, in key order.
	record := prefix[head:]
	at := make([]int, len(exp.ExportFields))
	for i, f := range exp.ExportFields {
		slot := append(jsonscan.AppendString(nil, f), `: ""`...)
		if at[i] = bytes.Index(record, slot); at[i] < 0 {
			panic("front: label " + f + " missing from the record layout")
		}
		at[i] += len(slot) - len(`""`)
		l.slots = append(l.slots, i)
	}
	sort.Slice(l.slots, func(a, b int) bool { return at[l.slots[a]] < at[l.slots[b]] })
	from := 0
	for _, i := range l.slots {
		l.record = append(l.record, string(record[from:at[i]]))
		from = at[i] + len(`""`)
	}
	l.record = append(l.record, string(record[from:]))
	return l
}

// appendPrefix appends the set head and cfg's record head, through
// `"stats": `, to dst.
func (l *layout) appendPrefix(dst []byte, cfg Config) []byte {
	values := exp.PointLabelValues(cfg.Point, cfg.Scale, cfg.Seed)
	dst = append(dst, l.set...)
	for k, i := range l.slots {
		dst = append(dst, l.record[k]...)
		dst = jsonscan.AppendString(dst, values[i])
	}
	return append(dst, l.record[len(l.slots)]...)
}

// bodyFrame is the canonical body of one point around its stats object.
type bodyFrame struct {
	*layout
	prefix []byte // set head and record head, through `"stats": `
}

// frame returns cfg's body frame under the given schema stamp.
func frame(cfg Config, schema string) bodyFrame {
	for _, l := range layouts {
		if l.schema == schema {
			return l.frame(cfg)
		}
	}
	panic("front: no body layout for schema " + schema)
}

// frame returns cfg's body frame in layout l.
func (l *layout) frame(cfg Config) bodyFrame {
	return bodyFrame{l, l.appendPrefix(make([]byte, 0, l.size+64), cfg)}
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
	for _, l := range layouts {
		if !bytes.HasPrefix(body, l.set) {
			continue
		}
		f := l.frame(cfg)
		if stats, ok := f.stats(body); ok {
			return f, stats, nil
		}
	}
	return bodyFrame{}, nil, fmt.Errorf("result body is not the canonical record of %s", cfg.Key())
}

// CheckRun verifies that body is a well-formed single-seed /v1/run answer
// for cfg: it starts with the exact v1 frame carrying cfg's labels, ends
// with the exact closing bytes, and holds one valid JSON object between
// the two. It scans the stats object with jsonscan, without decoding it.
func CheckRun(cfg Config, body []byte) error {
	var buf [512]byte // the frame on the stack: the check allocates nothing
	l := layouts[0]
	f := bodyFrame{l, l.appendPrefix(buf[:0], cfg)}
	stats, ok := f.stats(body)
	if !ok {
		return fmt.Errorf("run body is not the v1 record of %s", cfg.Key())
	}
	if len(stats) == 0 || stats[0] != '{' || stats[len(stats)-1] != '}' || !jsonscan.Valid(stats) {
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

// joinBodies assembles the buffered JSON result set of a sweep or an
// experiment from its points' bodies, in point order: the set head, each body's record element
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
		elems[i] = body[len(f.set) : len(body)-f.tail]
		size += len(set.sep) + len(elems[i])
	}
	buf := make([]byte, 0, len(set.set)+size+set.tail)
	buf = append(buf, set.set...)
	for i, e := range elems {
		if i > 0 {
			buf = append(buf, set.sep...)
		}
		buf = append(buf, e...)
	}
	return append(buf, set.suffix[len(set.suffix)-set.tail:]...), nil
}
