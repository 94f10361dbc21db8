// Package api is the typed wire contract of the swarmhints HTTP surface:
// the request bodies of /v1/run, /v1/sweep, and /v1/experiments/{id}, the
// structured error envelope every non-2xx response carries, the NDJSON
// stream framing (header line, record lines, completion trailer), and a
// small Client speaking all of it. swarmd's handlers (internal/service),
// the swarmgate fleet gateway (internal/gate), and the tests all share
// these types, so a request that one component emits is by construction a
// request another component parses.
//
// Responses reuse the stable swarmhints.metrics.v1 result schema
// (internal/metrics: Snapshot, Record, ResultSet); this package adds only
// the envelope around it. The contract is deliberately re-encodable: a
// Record decoded from one server and re-marshaled produces the exact bytes
// the origin would have sent, and a record line is its /v1/run body's stats
// object compacted under the point's labels (EncodeRawRecord, which writes
// both with internal/jsonscan, byte for byte as encoding/json would, and
// without reflection) — which is what lets swarmgate relay per-point bodies
// and reassemble them into a stream byte-identical to a single swarmd's.
package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// MaxBodyBytes bounds request bodies; sweep grids are tiny JSON documents.
const MaxBodyBytes = 1 << 20

// MaxRecordBytes bounds one encoded record a client reads: a /v1/run
// response body, or one NDJSON record line.
const MaxRecordBytes = 16 << 20

// Point is one simulation configuration in wire form: a benchmark run
// under a scheduler at a core count, optionally with access profiling.
// The harness fields (scale, seed) are carried separately — a sweep fixes
// them once for every point of its grid.
type Point struct {
	Bench   string `json:"bench"`
	Sched   string `json:"sched"`
	Cores   int    `json:"cores"`
	Profile bool   `json:"profile"`
}

// Run builds the /v1/run request executing this point under the given
// harness. The seed is passed explicitly so a proxy's per-point requests
// cannot drift from the sweep's resolved default.
func (p Point) Run(scale string, seed int64) RunRequest {
	s := seed
	return RunRequest{
		Bench: p.Bench, Sched: p.Sched, Cores: p.Cores,
		Scale: scale, Seed: &s, Profile: p.Profile,
	}
}

// MaxSeeds bounds the seed-replica fan-out of one run request.
const MaxSeeds = 4096

// RunRequest is the body of POST /v1/run: one simulation configuration.
type RunRequest struct {
	Bench   string `json:"bench"`
	Sched   string `json:"sched"`
	Cores   int    `json:"cores"`
	Scale   string `json:"scale,omitempty"` // tiny|small|full; default small
	Seed    *int64 `json:"seed,omitempty"`  // default 7 (the harness default)
	Profile bool   `json:"profile,omitempty"`
	// Seeds > 1 fans the configuration out as that many seed replicas
	// (workload seeds derived from Seed in replica order) and answers with
	// the single merged record: counters summed, derived metrics recomputed,
	// cross-seed dispersion in the snapshot's seedSummary block (schema
	// swarmhints.metrics.v2). 0 or 1 is a plain single-seed run. Servers
	// predating this field reject it (unknown fields fail loudly).
	Seeds int `json:"seeds,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep: a configuration grid
// (benches × scheds × cores), executed under one (scale, seed) harness.
type SweepRequest struct {
	Benches []string `json:"benches"`
	Scheds  []string `json:"scheds"`
	Cores   []int    `json:"cores"`
	Scale   string   `json:"scale,omitempty"`
	Seed    *int64   `json:"seed,omitempty"`
	Profile bool     `json:"profile,omitempty"`
	// Format selects the response encoding: "ndjson" (default) streams one
	// record per line in canonical configuration order as results complete,
	// terminated by a completion trailer; "json" and "csv" buffer the full
	// result set and emit exactly the bytes cmd/experiments -format
	// json|csv would for the same grid.
	Format string `json:"format,omitempty"`
}

// ExperimentRequest is the body of POST /v1/experiments/{id}.
type ExperimentRequest struct {
	Scale  string `json:"scale,omitempty"`
	Seed   *int64 `json:"seed,omitempty"`
	Cores  []int  `json:"cores,omitempty"`  // core sweep override; default per scale
	Format string `json:"format,omitempty"` // json (default) | csv | ndjson | text
}

// ExperimentInfo is one entry of the GET /v1/experiments listing.
type ExperimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// Per-endpoint format lists. Every "unknown format" rejection goes through
// UnknownFormat with the list for its endpoint, so the error always
// advertises exactly the formats that endpoint accepts.
var (
	// SweepFormats are the encodings POST /v1/sweep accepts.
	SweepFormats = []string{"ndjson", "json", "csv"}
	// ExperimentFormats are the encodings POST /v1/experiments/{id}
	// accepts ("text" is the human-readable tables).
	ExperimentFormats = []string{"json", "csv", "ndjson", "text"}
	// ResultFormats are the machine-readable result-set encodings.
	ResultFormats = []string{"json", "csv", "ndjson"}
)

// UnknownFormat builds the canonical unknown-format rejection for an
// endpoint supporting exactly the formats in have.
func UnknownFormat(got string, have []string) *Error {
	return Errorf(CodeUnknownFormat, "unknown format %q (have %s)", got, strings.Join(have, ", "))
}

// DecodeRequest decodes a JSON request body into v, rejecting unknown
// fields so typos in configuration keys fail loudly instead of running
// defaults. The body is bounded by MaxBodyBytes through w.
func DecodeRequest(w http.ResponseWriter, r *http.Request, v any) *Error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return Errorf(CodeBadRequest, "bad request body: %v", err)
	}
	return nil
}

// String renders a point for logs and errors.
func (p Point) String() string {
	return fmt.Sprintf("%s/%s/%d/%v", p.Bench, p.Sched, p.Cores, p.Profile)
}
